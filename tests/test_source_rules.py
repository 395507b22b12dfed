"""Rules about how the package's own source is written."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "housealloc"


def test_no_tuple_built_from_an_iterator():
    # CPython allocates a tuple built from a generator or map at a guessed
    # size and resizes it; when it dies it joins the free list of its final
    # size, which only a full gc collection empties, so in a long-lived
    # process those lists grow.  tuple([...]) allocates the exact size.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and (
                    isinstance(node.args[0], ast.GeneratorExp)
                    or isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "map"
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"tuple() of a generator or map at {found}; build it from a list"
