"""Build each workload's input pool and record its reference outputs.

    python3 perfbench/record.py [workload ...]

For every workload this writes ``perfbench/refs/<workload>.json``: the set-up
steps (CLI ``gen`` and ``run`` invocations that write the input files, each
with the SHA-256 of the file it must produce), and the ops, each with its
argv, the digests of its exit code, stdout and output files, and its cost
in seconds as measured while recording.  The cost only sorts ops into bins
of similar cost for the run schedule; it is never reported.

Run it only to (re)define the pool: the references pin the program's
output bytes, so recording them again after a change to the program would
hide that change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

VARIANTS = 4
ALL_PROPERTIES = "ir,sir,po,core,strict-core,maxw,maxw-ir,maxw-sir"


def _gen(name: str, agents: int, houses: int, endow: float, accept: float, seed: int) -> dict:
    path = f"in/{name}.json"
    argv = [
        "gen", "--agents", str(agents), "--houses", str(houses),
        "--endow-prob", repr(endow), "--accept-prob", repr(accept),
        "--seed", str(seed), "--output", path,
    ]
    return {"argv": argv, "file": path}


def _run_ops(instance: str, stem: str) -> list[dict]:
    return [
        {
            "id": f"{stem}-{mech}",
            "argv": ["run", instance, "--mechanism", mech, "--output", "out/allocation.json"],
            "mechanism": mech,
        }
        for mech in ("msir", "mir")
    ]


def _spread(low: int, high: int, count: int) -> list[int]:
    """``count`` sizes from ``low`` to ``high``, evenly spaced.  Sizes that
    vary smoothly give op costs without gaps, which keeps the median op
    from jumping between distant cost levels from one run to the next."""
    return [low + round(i * (high - low) / (count - 1)) for i in range(count)]


def market_open() -> tuple[list[dict], list[dict]]:
    """n = m from 28 to 60, sparse (about 3 acceptable houses) and dense."""
    setup, ops = [], []
    for i, size in enumerate(_spread(28, 60, 24)):
        for density, accept in (("sparse", round(3 / size, 4)), ("dense", 0.5)):
            stem = f"open-{i}-{size}-{density}"
            step = _gen(stem, size, size, 0.8, accept, 1_000_000 + 10 * i + (density == "dense"))
            setup.append(step)
            ops += _run_ops(step["file"], stem)
    return setup, ops


def market_contended() -> tuple[list[dict], list[dict]]:
    """About twice as many agents as houses, sparse acceptability."""
    setup, ops = [], []
    for i, agents in enumerate(_spread(24, 48, 32)):
        stem = f"contended-{i}-{agents}"
        step = _gen(stem, agents, agents // 2, 0.5, 0.1, 2_000_000 + i)
        setup.append(step)
        ops += _run_ops(step["file"], stem)
    return setup, ops


def paper_table() -> tuple[list[dict], list[dict]]:
    """Four-trial misreport-sweep reports, one master seed per op."""
    ops = []
    for seed in range(24 * VARIANTS):
        ops.append({
            "id": f"report-{seed}",
            "argv": [
                "report", "--sp", "on", "--max-agents", "6", "--max-houses", "6",
                "--trials", "4", "--seed", str(3_000_000 + seed), "--out-dir", "out/report",
            ],
        })
    return [], ops


def verify_7x7() -> tuple[list[dict], list[dict]]:
    """All eight properties on MSIR and MIR outputs of 7x7 markets.

    At 8x8, the default enumeration budget, one op takes 0.3-2 s, so a run
    holds too few ops for a steady median; at 7x7 it takes about 0.1 s and
    welfare-maxima enumeration still dominates it."""
    setup, ops = [], []
    params = [(e, a) for e in (0.5, 0.75, 1.0) for a in (0.25, 0.35, 0.5)]
    for i in range(36 * VARIANTS):
        endow, accept = params[i % len(params)]
        stem = f"v7-{i}"
        step = _gen(stem, 7, 7, endow, accept, 4_000_000 + i)
        setup.append(step)
        for mech in ("msir", "mir"):
            allocation = f"in/{stem}-{mech}.json"
            setup.append({
                "argv": ["run", step["file"], "--mechanism", mech, "--output", allocation],
                "file": allocation,
            })
            ops.append({
                "id": f"{stem}-{mech}",
                "argv": [
                    "verify", step["file"], allocation, "--properties", ALL_PROPERTIES,
                    "--json", "out/report.json",
                ],
                "mechanism": mech,
            })
    return setup, ops


POOLS = {
    "market-open": market_open,
    "market-contended": market_contended,
    "paper-table": paper_table,
    "verify-7x7": verify_7x7,
}


def record(workload: str) -> None:
    setup, ops = POOLS[workload]()
    work = HERE / "work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    Path("in").mkdir()
    cli = harness.fresh_import()
    for step in setup:
        if cli.main(list(step["argv"])) != 0:
            raise SystemExit(f"set-up step failed: {step['argv']}")
        step["sha256"] = harness.sha256(Path(step["file"]).read_bytes())
    inputs = checks.Inputs()
    for op in ops:
        first = harness.run_cli(cli, op["argv"])
        outcome = harness.run_cli(cli, op["argv"])
        if outcome.error is not None:
            raise SystemExit(f"{op['id']}: {outcome.error}")
        if harness.mismatches(harness.expectation(first), outcome):
            raise SystemExit(f"{op['id']}: two runs gave different outputs")
        best = min(first.seconds, outcome.seconds)
        problems = checks.check(inputs, op, outcome.exit_code, outcome.stdout, outcome.files)
        if problems:
            raise SystemExit(f"{op['id']}: {problems}")
        op["cost_s"] = round(best, 4)
        op["expect"] = harness.expectation(outcome)
        print(f"{workload} {op['id']}: {best:.3f} s", flush=True)
    os.chdir(HERE)
    shutil.rmtree(work)
    doc = {
        "workload": workload,
        "variants": VARIANTS,
        "recorded_with": {
            "python": platform.python_version(),
            "source_sha256": run.source_digest(),
        },
        "setup": setup,
        "ops": ops,
    }
    out = HERE / "refs" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(POOLS), choices=list(POOLS))
    args = parser.parse_args()
    run.prepare_environment()
    for workload in args.workloads:
        record(workload)


if __name__ == "__main__":
    main()
