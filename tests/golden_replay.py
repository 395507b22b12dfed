"""Replay the golden corpus through the command line and print every mismatch.

Standard library only, so that every supported interpreter can run it
without pytest, from the repository root::

    PYTHONPATH=src python3.12 tests/golden_replay.py

Each ``run`` document of ``markets.jsonl`` and ``trials.jsonl`` is rebuilt
by ``housealloc gen`` and ``housealloc run``, each ``verify.jsonl`` case by
``gen`` and ``verify`` on the allocation it names, and ``report.json`` by
its own ``report`` command.  Every command goes through
:func:`housealloc.cli.main` in this process.  The exit status is 0 when
every output matches the corpus and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from housealloc import cli, fileio
from housealloc.model import Allocation
from housealloc.oracles import PROPERTY_KEYS

GOLDEN = Path(__file__).resolve().parent / "golden"

# Allocations below the welfare maxima: every agent keeps its endowment (IR
# and S-IR, so short of a maximum only in welfare), or nobody gets a house.
ALLOCATIONS = {
    "endowments": lambda instance: dict(instance.endowment),
    "nothing": lambda instance: {},
}

REPORT_ARGS = ["report", "--sp", "on", "--trials", "20", "--seed", "15",
               "--max-agents", "5", "--max-houses", "5"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one command; standard error is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def load(group: str) -> list[dict]:
    path = GOLDEN / f"{group}.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def gen(params: dict, path: Path) -> None:
    """Write the instance of generator parameters ``params`` to ``path``."""
    code, _ = run_cli([
        "gen", "--agents", str(params["agents"]), "--houses", str(params["houses"]),
        "--endow-prob", repr(params["endow_prob"]),
        "--accept-prob", repr(params["accept_prob"]),
        "--seed", str(params["seed"]), "--output", str(path),
    ])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"gen exited {code} on {params}")


def run_document(entry: dict, tmp: Path) -> str:
    """The document ``run`` writes for a ``markets`` or ``trials`` entry."""
    instance, allocation = tmp / "instance.json", tmp / "allocation.json"
    gen(entry["params"], instance)
    code, _ = run_cli(["run", str(instance), "--mechanism", entry["mechanism"],
                       "--permutation", entry["permutation"], "--output", str(allocation)])
    return allocation.read_text(encoding="utf-8") if code == cli.EXIT_OK else f"exit {code}"


def verify_output(params: dict, kind: str) -> dict:
    """What ``verify`` of every property prints, writes and exits with on
    the ``kind`` allocation of the instance of ``params``."""
    with tempfile.TemporaryDirectory() as tmp:
        inst, alloc, report = (Path(tmp) / name for name in ("i.json", "a.json", "r.json"))
        gen(params, inst)
        instance = fileio.loads_instance(inst.read_text(encoding="utf-8"))
        allocation = Allocation(ALLOCATIONS[kind](instance))
        alloc.write_text(fileio.dumps_allocation(instance, allocation), encoding="utf-8")
        code, stdout = run_cli(["verify", str(inst), str(alloc), "--properties",
                                ",".join(PROPERTY_KEYS), "--json", str(report)])
        return {"exit": code, "stdout": stdout, "document": report.read_text(encoding="utf-8")}


def report_output() -> dict:
    """The command, exit code, output and files of one ``report`` run, its
    output directory written as ``OUT``."""
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = run_cli(REPORT_ARGS + ["--out-dir", tmp])
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(tmp).iterdir())}
    return {"argv": REPORT_ARGS, "exit": code, "stdout": stdout.replace(tmp, "OUT"),
            "files": files}


def mismatches() -> list[str]:
    """One line for each golden output the current code does not reproduce."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for group in ("markets", "trials"):
            found += [f"{group}: {entry['id']}" for entry in load(group)
                      if run_document(entry, Path(tmp)) != entry["document"]]
    for entry in load("verify"):
        expected = {key: entry[key] for key in ("exit", "stdout", "document")}
        if verify_output(entry["params"], entry["allocation"]) != expected:
            found.append(f"verify: {entry['id']}")
    if report_output() != json.loads((GOLDEN / "report.json").read_text(encoding="utf-8")):
        found.append("report: " + " ".join(REPORT_ARGS))
    return found


def main() -> int:
    found = mismatches()
    for line in found:
        print(line)
    print(f"{len(found)} mismatches under Python {sys.version.split()[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
