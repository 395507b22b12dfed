"""Op execution, reference comparison and the op schedule.

An op is one CLI invocation, ``housealloc.cli.main(argv)``, run in-process
with the work directory as the current directory so that every path the
program sees or prints is relative.  Its outcome is the exit code, the
stdout bytes and every file it leaves under ``out/``; the reference stores
their SHA-256 digests as recorded from the program at the commit that
recorded the pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

OUT_DIR = Path("out")
OP_SPAN = "bench.op"
GOLDEN = (5 ** 0.5 - 1) / 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fresh_import():
    """Drop every loaded housealloc module and import the CLI again."""
    for name in [n for n in sys.modules if n == "housealloc" or n.startswith("housealloc.")]:
        del sys.modules[name]
    return importlib.import_module("housealloc.cli")


@dataclass
class Outcome:
    seconds: float
    exit_code: int | None
    stdout: bytes
    files: dict[str, bytes] = field(default_factory=dict)
    error: str | None = None
    stderr: str = ""


def run_cli(cli, argv: list[str], tracer=None) -> Outcome:
    """Run one op and collect what it produced; only the call is timed.

    With a tracer, the call is recorded as the op's root span.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    span = tracer.open(tracer.name_id(OP_SPAN)) if tracer is not None else None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if span is not None:
        tracer.close(span)
    files = {
        path.as_posix(): path.read_bytes()
        for path in sorted(OUT_DIR.rglob("*"))
        if path.is_file()
    }
    shutil.rmtree(OUT_DIR)
    return Outcome(seconds, code, out.getvalue().encode(), files, error, err.getvalue())


def expectation(outcome: Outcome) -> dict:
    """The reference entry for an outcome."""
    return {
        "exit": outcome.exit_code,
        "stdout": sha256(outcome.stdout),
        "files": {name: sha256(data) for name, data in outcome.files.items()},
    }


def mismatches(expected: dict, outcome: Outcome) -> list[str]:
    """Ways an outcome differs from its reference; empty when identical."""
    problems = []
    if outcome.error is not None:
        problems.append(f"raised {outcome.error}")
    if outcome.exit_code != expected["exit"]:
        problems.append(
            f"exit code {outcome.exit_code} != {expected['exit']} {outcome.stderr.strip()}"
        )
    if sha256(outcome.stdout) != expected["stdout"]:
        problems.append("stdout bytes differ")
    got = {name: sha256(data) for name, data in outcome.files.items()}
    for name in sorted(set(got) | set(expected["files"])):
        if got.get(name) != expected["files"].get(name):
            problems.append(f"{name} bytes differ" if name in got else f"{name} missing")
    return problems


def load_pool(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def bins(pool: dict) -> list[list[int]]:
    """Ops grouped by recorded cost: consecutive runs of ``variants`` ops."""
    k = pool["variants"]
    ranked = sorted(range(len(pool["ops"])), key=lambda i: (pool["ops"][i]["cost_s"], i))
    return [ranked[i:i + k] for i in range(0, len(ranked), k)]


class Schedule:
    """The op sequence of one run.

    Every cycle visits each cost bin once, in a fixed order whose prefixes
    mix cheap and dear bins evenly (bins sorted by the fractional part of
    ``index * golden ratio``).  The seed only chooses which op of a bin
    runs, so any seed gives the same mix of costs, and a run that stops in
    the middle of a cycle still has a representative mix.
    """

    def __init__(self, pool: dict, seed: int) -> None:
        groups = bins(pool)
        order = sorted(range(len(groups)), key=lambda b: ((b * GOLDEN) % 1.0, b))
        self._groups = [groups[b] for b in order]
        self._seed = seed

    def __getitem__(self, i: int) -> int:
        cycle, slot = divmod(i, len(self._groups))
        group = self._groups[slot]
        digest = hashlib.sha256(f"{self._seed}:{cycle}:{slot}".encode()).digest()
        return group[int.from_bytes(digest[:8], "big") % len(group)]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With n samples that is
    the (n - 10)-th smallest, at percentile 100 * (n - 10) / n.  With ten
    or fewer samples no such percentile exists; the maximum is returned,
    with the number of samples beyond it (zero).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0
