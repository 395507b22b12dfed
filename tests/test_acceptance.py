"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; without
``-s`` pytest shows the lines of failing criteria only.

All randomized criteria draw from the same master seed through the same
documented schedule (housealloc.gen.trial_params).
"""

import contextlib
import io
import time
from pathlib import Path

import pytest

from housealloc.cli import main
from housealloc.fileio import (
    dumps_allocation,
    dumps_instance,
    loads_allocation,
    loads_instance,
)
from housealloc.gen import random_instance, trial_params
from housealloc.matching import max_weight_perfect_matching
from housealloc.mechanisms import Mechanism, Solved, run_mechanism
from housealloc.model import Allocation, welfare
from housealloc import oracles
from housealloc.rng import SplitMix64

from conftest import brute_force_optimum, has_perfect_matching, make_e1, make_e2, make_e3
import reference_po

MASTER_SEED = 0
FIXTURES = Path(__file__).parent / "fixtures"

Z_E3 = Allocation({"1": "h3", "2": "h4", "3": "h1", "4": "h2"})


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {status}{suffix}")
    if not ok:
        pytest.fail(f"criterion {number} ({label}) failed{suffix}", pytrace=False)


def _timed_run(instance, mechanism, repeats=15):
    run_mechanism(instance, mechanism)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_mechanism(instance, mechanism)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_two_agent_fixture():
    e2 = make_e2()
    msir, msir_time = _timed_run(e2, Mechanism.MSIR)
    mir, mir_time = _timed_run(e2, Mechanism.MIR)
    ok = (
        welfare(e2, msir.allocation) == 0
        and msir.allocation.assignment == {"1": "h1", "2": "h2"}
        and welfare(e2, mir.allocation) == 1
        and msir_time < 1e-3
        and mir_time < 1e-3
    )
    _verdict(
        1,
        "two-agent fixture",
        ok,
        f"msir welfare 0 in {msir_time * 1e6:.0f}us, mir welfare 1 in {mir_time * 1e6:.0f}us",
    )


def test_criterion_2_four_agent_core_counterexample():
    e3 = make_e3()
    core = oracles.is_core_stable(e3, Z_E3)
    msir_core = oracles.is_core_stable(e3, run_mechanism(e3, Mechanism.MSIR).allocation)
    ok = (
        oracles.is_ir(e3, Z_E3)
        and welfare(e3, Z_E3) == 2 == oracles.max_welfare(e3)
        and not core.holds
        and core.witness.coalition == ("1", "2")
        and oracles.verify_blocking_witness(e3, Z_E3, core.witness)
        and msir_core.holds
    )
    _verdict(2, "four-agent core counterexample", ok)


def test_criterion_3_five_agent_example():
    e1 = make_e1()
    msir = run_mechanism(e1, Mechanism.MSIR)
    mir = run_mechanism(e1, Mechanism.MIR)
    ok = (
        welfare(e1, msir.allocation) == 5
        and welfare(e1, mir.allocation) == 5
        and oracles.is_sir(e1, msir.allocation)
        and oracles.is_ir(e1, mir.allocation)
        and oracles.is_pareto_optimal(e1, mir.allocation).holds
        and reference_po.is_pareto_optimal(e1, mir.allocation).holds
    )
    _verdict(3, "five-agent example", ok)


def test_criterion_4_randomized_theorem_suite():
    trials = 1000
    t0 = time.time()
    failures = []
    regimes = {"n<m": 0, "n=m": 0, "n>m": 0, "unendowed": 0, "unowned": 0}
    for t in range(trials):
        inst = random_instance(trial_params(MASTER_SEED, t, 6, 6))
        n, m = inst.num_agents, inst.num_houses
        regimes["n<m" if n < m else "n=m" if n == m else "n>m"] += 1
        if n and len(inst.endowment) < n:
            regimes["unendowed"] += 1
        if m and len(inst.endowment) < m:
            regimes["unowned"] += 1
        maxima = oracles.welfare_maxima(inst)
        best = oracles.max_welfare(inst)
        msir = run_mechanism(inst, Mechanism.MSIR)
        mir = run_mechanism(inst, Mechanism.MIR)
        if not oracles.is_sir(inst, msir.allocation):
            failures.append((t, "msir not S-IR"))
        if not oracles.is_core_stable(inst, msir.allocation).holds:
            failures.append((t, "msir not core stable"))
        if welfare(inst, msir.allocation) != maxima.sir:
            failures.append((t, "msir welfare below the S-IR maximum"))
        if not oracles.is_ir(inst, mir.allocation):
            failures.append((t, "mir not IR"))
        if not oracles.is_pareto_optimal(inst, mir.allocation).holds:
            failures.append((t, "mir not Pareto optimal"))
        if not (welfare(inst, mir.allocation) == maxima.ir == maxima.unconstrained == best):
            failures.append((t, "mir welfare below a maximum"))
        for res in (msir, mir):
            if sum(res.trace.satisfied_flags.values()) != res.trace.initial_weight:
                failures.append((t, "flag sum differs from matching weight"))
    elapsed = time.time() - t0
    covered = all(regimes.values())
    ok = not failures and covered and elapsed < 300
    _verdict(
        4,
        "randomized theorem suite",
        ok,
        f"{trials - len(set(f[0] for f in failures))}/{trials} clean, "
        f"regimes {regimes}, {elapsed:.1f}s"
        + (f", first failures {failures[:3]}" if failures else ""),
    )


def test_criterion_5_strategyproofness_sweep():
    # The sweep is exhaustive over 2^m reports per agent, identity order.
    # The strong variant has never produced a manipulation (exhaustive over
    # every 3x3 market and every randomized sweep so far).  The plain-IR
    # variant is genuinely manipulable: claiming the own endowment
    # acceptable shrinks the manipulator's edge set, which can flip an
    # earlier agent's refinement flag in its favor; the pinned minimal
    # cases live in tests/test_oracles.py.  This criterion therefore fails
    # honestly, with every found manipulation re-verified independently.
    trials = 200
    t0 = time.time()
    found = {mech: [] for mech in Mechanism}
    unverified = []
    for t in range(trials):
        inst = random_instance(trial_params(MASTER_SEED, t, 5, 5))
        for mech in Mechanism:
            witness = oracles.check_strategyproofness(Solved(inst, mech))
            if witness is not None:
                found[mech].append(t)
                if not oracles.verify_manipulation_witness(inst, mech, witness):
                    unverified.append((t, mech.value))
    elapsed = time.time() - t0
    ok = not found[Mechanism.MSIR] and not found[Mechanism.MIR] and elapsed < 600
    detail = (
        f"msir {trials - len(found[Mechanism.MSIR])}/{trials} clean; "
        f"mir {trials - len(found[Mechanism.MIR])}/{trials} clean"
        + (
            f", verified manipulations at trials {found[Mechanism.MIR]}"
            if found[Mechanism.MIR]
            else ""
        )
        + (f", UNVERIFIED {unverified}" if unverified else "")
        + f", {elapsed:.1f}s"
    )
    _verdict(5, "strategyproofness sweep", ok, detail)


def test_criterion_6_solver_oracle_equivalence():
    rng = SplitMix64(MASTER_SEED + 6)
    graphs = 500
    mismatches = 0
    for _ in range(graphs):
        size = rng.bounded(5)  # |V| = 2 * size <= 8
        g = [{} for _ in range(size)]
        density = 0.3 + 0.6 * rng.float01()
        for li in range(size):
            for rj in range(size):
                if rng.bernoulli(density):
                    g[li][rj] = 1 if rng.bernoulli(0.5) else 0
        brute = brute_force_optimum(g)
        optimum = max_weight_perfect_matching(g)
        if optimum is not None:
            optimum.canonical()
        feasible = has_perfect_matching(g)
        if brute is None:
            if optimum is not None or feasible:
                mismatches += 1
        else:
            if (
                optimum is None
                or not feasible
                or optimum.weight != brute[0]
                or tuple(optimum.mate) != brute[1]
            ):
                mismatches += 1
    _verdict(
        6,
        "solver oracle equivalence",
        mismatches == 0,
        f"{graphs - mismatches}/{graphs} graphs agree",
    )


def test_criterion_7_pareto_certificate_agreement():
    pairs = 500
    disagreements = 0
    rng = SplitMix64(MASTER_SEED + 7)
    for t in range(pairs):
        inst = random_instance(trial_params(MASTER_SEED + 7, t, 5, 5))
        houses = list(inst.houses)
        rng.shuffle(houses)
        assignment = {}
        k = 0
        for a in inst.agents:
            if k < len(houses) and rng.bernoulli(0.6):
                assignment[a] = houses[k]
                k += 1
            else:
                assignment[a] = None
        alloc = Allocation(assignment)
        brute = reference_po.is_pareto_optimal(inst, alloc)
        cert = oracles.is_pareto_optimal(inst, alloc, method="certificate")
        if brute.holds != cert.holds:
            disagreements += 1
    _verdict(
        7,
        "Pareto certificate agreement",
        disagreements == 0,
        f"{pairs - disagreements}/{pairs} pairs agree",
    )


def _cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_criterion_8_determinism_and_round_trip(tmp_path):
    problems = []
    for name in ("e1", "e2", "e3"):
        text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        if dumps_instance(loads_instance(text)) != text:
            problems.append(f"{name} round-trip")
    gen_args = ["gen", "--agents", "5", "--houses", "6", "--endow-prob", "0.8",
                "--accept-prob", "0.3", "--seed", "42"]
    outs = []
    for sub in ("g1.json", "g2.json"):
        path = tmp_path / sub
        assert main(gen_args + ["--output", str(path)]) == 0
        outs.append(path.read_bytes())
    if outs[0] != outs[1]:
        problems.append("gen output differs between runs")
    for mech in ("msir", "mir"):
        runs = []
        for sub in ("r1.json", "r2.json"):
            path = tmp_path / sub
            assert main(["run", str(FIXTURES / "e1.json"), "--mechanism", mech,
                         "--output", str(path)]) == 0
            runs.append(path.read_bytes())
        if runs[0] != runs[1]:
            problems.append(f"run {mech} output differs between runs")
        # allocation document round-trips through parse + re-serialize
        inst = loads_instance((FIXTURES / "e1.json").read_text())
        text = runs[0].decode()
        alloc, _, trace = loads_allocation(text, inst)
        if dumps_allocation(inst, alloc, trace) != text:
            problems.append(f"run {mech} allocation document round-trip")
    e3 = loads_instance((FIXTURES / "e3.json").read_text())
    z_path = tmp_path / "z.json"
    z_path.write_text(dumps_allocation(e3, Z_E3))
    verify_outputs = []
    for sub in ("v1.json", "v2.json"):
        path = tmp_path / sub
        code, out = _cli(["verify", str(FIXTURES / "e3.json"), str(z_path),
                          "--properties", "ir,core", "--json", str(path)])
        verify_outputs.append((code, out, path.read_bytes()))
    if verify_outputs[0] != verify_outputs[1]:
        problems.append("verify output differs between runs")
    report_outputs = []
    for sub in ("ra", "rb"):
        code, out = _cli(["report", "--trials", "50", "--seed", "5",
                          "--max-agents", "4", "--max-houses", "4",
                          "--out-dir", str(tmp_path / sub)])
        assert code == 0
        report_outputs.append(out.replace(str(tmp_path / sub), "OUT"))
    if report_outputs[0] != report_outputs[1]:
        problems.append("report output differs between runs")
    ra_files = sorted(p.name for p in (tmp_path / "ra").glob("*.json"))
    rb_files = sorted(p.name for p in (tmp_path / "rb").glob("*.json"))
    if ra_files != rb_files or not ra_files:
        problems.append("report counterexample file sets differ")
    elif any(
        (tmp_path / "ra" / name).read_bytes() != (tmp_path / "rb" / name).read_bytes()
        for name in ra_files
    ):
        problems.append("report counterexample files differ between runs")
    _verdict(8, "determinism and round-trip", not problems, "; ".join(problems) or "all byte-identical")


def test_criterion_9_table_reproduction(tmp_path):
    out_dir = tmp_path / "cx"
    code, out = _cli(["report", "--trials", "1000", "--seed", str(MASTER_SEED),
                      "--max-agents", "6", "--max-houses", "6",
                      "--out-dir", str(out_dir)])
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    cells = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("sir", "ir", "core", "po",
                                            "maxw-sir", "maxw-ir", "maxw"):
            cells[parts[0]] = (parts[1], parts[2])
    plus_cells = {
        ("sir", 0), ("ir", 0), ("core", 0), ("maxw-sir", 0),
        ("ir", 1), ("po", 1), ("maxw-ir", 1), ("maxw", 1),
    }
    for prop, col in sorted(plus_cells):
        if cells.get(prop, ("?", "?"))[col] != "100.0%":
            problems.append(f"{'msir' if col == 0 else 'mir'}/{prop} below 100%")
    for stem in ("mir_core", "msir_maxw"):
        inst_file = out_dir / f"{stem}_instance.json"
        alloc_file = out_dir / f"{stem}_allocation.json"
        if not inst_file.exists() or not alloc_file.exists():
            problems.append(f"missing counterexample files for {stem}")
            continue
        prop = stem.split("_", 1)[1]
        vcode, vout = _cli(["verify", str(inst_file), str(alloc_file),
                            "--properties", prop])
        if vcode != 1 or f"{prop}: fails" not in vout:
            problems.append(f"counterexample {stem} does not reproduce under verify")
    _verdict(
        9,
        "empirical property table",
        not problems,
        "; ".join(problems) or "all positive cells at 100%, counterexamples reproduce",
    )
