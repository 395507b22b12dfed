"""README's library example runs as written: every line of its ``python``
block that ends in a comment evaluates to the value the comment shows."""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_example_shows_what_it_computes():
    source = python_block()
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for statement in ast.parse(source).body:
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        if isinstance(statement, ast.Expr) and comment:
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert value == ast.literal_eval(comment), lines[statement.lineno - 1]
            shown.append(value)
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert shown == [{"1": "h2", "2": "h1"}, 1, True, None]
