"""The housealloc benchmark: real CLI ops on seeded workloads.

    python3 perfbench/run.py --workload market-open --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
op is one ``housealloc.cli.main`` call (``run``, ``verify`` or ``report``)
issued when the previous one has returned, so no op ever waits.  Every op
is compared byte for byte with its recorded reference and checked by the
package's independent oracles; a mismatch or a failed check counts as a
failed op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then with the layer wrappers of ``tracer.py``
installed, and reports the per-layer metrics plus the tracing overhead.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("market-open", "market-contended", "paper-table", "verify-7x7")
SETUP_REPEATS = 5
# The timed phase stops here even when --seconds of op time is not reached,
# so that a run of a much slower program still ends within three minutes.
WALL_LIMIT_S = 120.0


class EnvironmentProblem(Exception):
    pass


def prepare_environment() -> None:
    """Refuse to run where the measurement would not mean what it says."""
    if not (SRC / "housealloc" / "cli.py").is_file():
        raise EnvironmentProblem(f"no housealloc sources under {SRC}")
    overrides = sorted(k for k in os.environ if k.startswith("HOUSEALLOC_MAX_"))
    if overrides:
        raise EnvironmentProblem(
            f"{', '.join(overrides)} set: oracle size budgets would differ from the references"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "housealloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def set_up(pool: dict, work: Path):
    """One set-up: fresh import, input files, warm-up op.  Returns the CLI
    module, the seconds it took and the input files that came out wrong."""
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    start = perf_counter()
    cli = harness.fresh_import()
    Path("in").mkdir()
    bad = set()
    for step in pool["setup"]:
        outcome = harness.run_cli(cli, step["argv"])
        path = Path(step["file"])
        if outcome.exit_code != 0 or not path.is_file():
            bad.add(step["file"])
        elif harness.sha256(path.read_bytes()) != step["sha256"]:
            bad.add(step["file"])
    cheapest = min(pool["ops"], key=lambda op: op["cost_s"])
    harness.run_cli(cli, cheapest["argv"])
    return cli, perf_counter() - start, bad


def failures(op: dict, outcome: harness.Outcome, bad_inputs: set[str]) -> list[str]:
    problems = [f"input {a} differs from its reference" for a in op["argv"] if a in bad_inputs]
    return problems + harness.mismatches(op["expect"], outcome)


def timed_loop(pool, cli, seed, seconds, bad_inputs, tracer=None):
    """Closed loop until ``seconds`` of op time.  Returns per-op records."""
    schedule = harness.Schedule(pool, seed)
    inputs = checks.Inputs()
    records = []
    busy = 0.0
    begin = perf_counter()
    while busy < seconds and perf_counter() - begin < WALL_LIMIT_S:
        index = schedule[len(records)]
        op = pool["ops"][index]
        plain = harness.run_cli(cli, op["argv"])
        problems = failures(op, plain, bad_inputs)
        record = {"op": op["id"], "seconds": plain.seconds}
        result = plain
        if tracer is not None:
            tracer.op_id = len(records)
            tracer.install()
            try:
                traced = harness.run_cli(cli, op["argv"], tracer=tracer)
            finally:
                tracer.uninstall()
            problems += [f"traced: {p}" for p in failures(op, traced, bad_inputs)]
            record["traced_seconds"] = traced.seconds
            result = traced
        if result.error is None:
            problems += checks.check(inputs, op, result.exit_code, result.stdout, result.files)
        record["problems"] = problems
        records.append(record)
        busy += plain.seconds + record.get("traced_seconds", 0.0)
    return records


def end_to_end(records: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records]
    tail_value, tail_pct, beyond = harness.tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "samples": len(times),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples": setup_times,
        "error_rate": sum(1 for r in records if r["problems"]) / len(records),
        "wait_s": 0.0,
    }
    return metrics, detail


# Per-layer metrics: (name, unit).  Busy and self times and counts are per
# traced op; see README.md for what each one is expected to move.
PER_LAYER = (
    ("matching.solve_calls", "calls/op"),
    ("matching.solve_s", "s/op"),
    ("matching.solve_s_per_call", "s/call"),
    ("mechanisms.solves_per_round", "ratio"),
    ("mechanisms.rounds", "rounds/op"),
    ("mechanisms.accept_ratio", "ratio"),
    ("mechanisms.refine_s", "s/op"),
    ("mechanisms.refine_self_s", "s/op"),
    ("mechanisms.build_s", "s/op"),
    ("mechanisms.graph_edges", "edges"),
    ("mechanisms.run_calls", "calls/op"),
    ("mechanisms.run_s_per_call", "s/call"),
    ("mechanisms.run_self_s", "s/op"),
    ("oracles.sp_s", "s/op"),
    ("oracles.sp_mechanism_calls", "calls/op"),
    ("oracles.welfare_maxima_s", "s/op"),
    ("oracles.welfare_maxima_calls", "calls/op"),
    ("oracles.core_s", "s/op"),
    ("oracles.po_s", "s/op"),
    ("oracles.maxw_s", "s/op"),
    ("fileio.parse_s", "s/op"),
    ("fileio.dump_s", "s/op"),
    ("gen.instance_s", "s/op"),
    *((f"{layer}.self_s", "s/op") for layer in tracing.LAYERS),
    ("workload.n", "agents"),
    ("workload.m", "houses"),
    ("workload.W", "agents"),
    ("trace.op_s", "s/op"),
    ("trace.overhead", "ratio"),
)


def per_layer(records: list[dict], tracer: tracing.Tracer) -> tuple[dict, dict]:
    stats, inside = tracing.summarize(
        tracer,
        (("matching.solve", "mechanisms.refine"), ("mechanisms.run", "oracles.sp")),
    )
    empty = {"calls": 0, "outer_calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def group(name: str) -> dict:
        return stats.get(name, empty)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ops = len(records)
    counters = tracer.counters
    rounds = counters.get("rounds", 0)
    runs = counters.get("runs", 0)
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name, entry in stats.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    traced = sum(r["traced_seconds"] for r in records)
    values = {
        "matching.solve_calls": group("matching.solve")["calls"] / ops,
        "matching.solve_s": group("matching.solve")["busy_s"] / ops,
        "matching.solve_s_per_call": ratio(
            group("matching.solve")["busy_s"], group("matching.solve")["calls"]
        ),
        "mechanisms.solves_per_round": ratio(group("matching.solve")["calls"], rounds),
        "mechanisms.rounds": rounds / ops,
        "mechanisms.accept_ratio": ratio(counters.get("accepted", 0), rounds),
        "mechanisms.refine_s": group("mechanisms.refine")["busy_s"] / ops,
        "mechanisms.refine_self_s": group("mechanisms.refine")["self_s"] / ops,
        "mechanisms.build_s": group("mechanisms.build")["busy_s"] / ops,
        "mechanisms.graph_edges": ratio(counters.get("graph_edges", 0), counters.get("graphs", 0)),
        "mechanisms.run_calls": group("mechanisms.run")["calls"] / ops,
        "mechanisms.run_s_per_call": ratio(
            group("mechanisms.run")["busy_s"], group("mechanisms.run")["outer_calls"]
        ),
        "mechanisms.run_self_s": group("mechanisms.run")["self_s"] / ops,
        "oracles.sp_s": group("oracles.sp")["busy_s"] / ops,
        "oracles.sp_mechanism_calls": inside[("mechanisms.run", "oracles.sp")] / ops,
        "oracles.welfare_maxima_s": group("oracles.welfare_maxima")["busy_s"] / ops,
        "oracles.welfare_maxima_calls": group("oracles.welfare_maxima")["calls"] / ops,
        "oracles.core_s": group("oracles.core")["busy_s"] / ops,
        "oracles.po_s": group("oracles.po")["busy_s"] / ops,
        "oracles.maxw_s": group("oracles.maxw")["busy_s"] / ops,
        "fileio.parse_s": group("fileio.parse")["busy_s"] / ops,
        "fileio.dump_s": group("fileio.dump")["busy_s"] / ops,
        "gen.instance_s": group("gen.instance")["busy_s"] / ops,
        **{f"{layer}.self_s": layer_self[layer] / ops for layer in tracing.LAYERS},
        # Sizes over the mechanism runs, or over the parsed inputs of ops
        # that run no mechanism.
        "workload.n": ratio(counters.get("n", 0), runs)
        or ratio(counters.get("parsed_n", 0), counters.get("parsed_instances", 0)),
        "workload.m": ratio(counters.get("m", 0), runs)
        or ratio(counters.get("parsed_m", 0), counters.get("parsed_instances", 0)),
        "workload.W": ratio(counters.get("W", 0), runs)
        or ratio(counters.get("parsed_W", 0), counters.get("parsed_allocations", 0)),
        "trace.op_s": traced / ops,
        "trace.overhead": traced / sum(r["seconds"] for r in records),
    }
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    detail = {
        "absent": tracer.absent,
        "uninspectable": sorted(tracer.uninspectable),
        "zero_calls": sorted({g for _, _, g in tracing.WRAPPED if group(g)["calls"] == 0}),
        "solves_in_refinement_per_op": inside[("matching.solve", "mechanisms.refine")] / ops,
        "spans": len(tracer.start),
        "groups": stats,
        "wait_s": {layer: 0.0 for layer in tracing.LAYERS},
    }
    return metrics, detail


def run_workload(args) -> int:
    prepare_environment()
    pool_path = HERE / "refs" / f"{args.workload}.json"
    if not pool_path.is_file():
        raise EnvironmentProblem(f"no recorded pool at {pool_path}")
    pool = harness.load_pool(pool_path)
    work = HERE / "work" / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli, seconds, bad_inputs = set_up(pool, work)
        setup_times.append(seconds)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.prepare()
    try:
        records = timed_loop(pool, cli, args.seed, args.seconds, bad_inputs, tracer)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics, detail = end_to_end(records, setup_times)
    else:
        metrics, detail = per_layer(records, tracer)
    failed = [r for r in records if r["problems"]]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    if tracer is not None:
        tracer.write(results / f"{stem}.spans")
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(),
            "source_sha256": source_digest(),
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "ops": records,
    }, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {int(args.trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'error_rate':32s} {len(failed) / len(records):.6g} failed/attempted")
    if tracer is None:
        print(f"  op_s_tail is p{detail['tail_percentile']:.1f} of {detail['samples']} ops")
    for record in failed[:5]:
        print(f"  FAILED {record['op']}: {'; '.join(record['problems'])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description="housealloc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except EnvironmentProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
