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
    # CPython 3.10, 3.11, 3.12 and 3.13 all behave so: sys._debugmallocstats()
    # shows 300 tuple(<generator of 3>) calls take 300 tuples from the
    # size-10 free list (the guess when there is no length hint) and return
    # 300 to the size-3 one, while tuple([...]) leaves the size-10 list alone.
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


# The package modules each module may import; None allows any.  The layers
# run bottom up: rng, model and matching stand alone, mechanisms runs the
# solver, and oracles check allocations without the solver.  fileio renders
# witnesses through their own doc(), so it needs no oracle.
IMPORTS_ALLOWED = {
    "rng": set(),
    "model": set(),
    "matching": set(),
    "gen": {"model", "rng"},
    "mechanisms": {"matching", "model", "rng"},
    "oracles": {"mechanisms", "model"},
    "fileio": {"mechanisms", "model"},
    "cli": None,
    "__init__": None,
}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module's source imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
            found.update(parts[1] for parts in dotted if parts[0] == "housealloc" and parts[1:])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["housealloc"]:
                    continue
                parts = parts[1:]
            found.update(parts[:1] or [alias.name for alias in node.names])
    return found


def test_modules_import_only_their_lower_layers():
    modules = {path.stem: path for path in sorted(SRC.glob("*.py"))}
    assert modules.keys() == IMPORTS_ALLOWED.keys(), "give every module its allowed imports"
    found = []
    for name, path in modules.items():
        allowed = IMPORTS_ALLOWED[name]
        if allowed is None:
            continue
        imported = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        found += [f"{name} imports {other}" for other in sorted(imported - allowed)]
    assert not found, found
