"""Golden corpus: canonical documents, re-run byte for byte.

Each line of ``tests/golden/markets.jsonl`` and ``trials.jsonl`` names one
case (generator parameters, mechanism, permutation spec) and the exact
document ``housealloc run`` wrote for it, trace included, when the corpus
was recorded.  Any change to the solver or the refinement that moves a
single byte of any output fails here.

``verify.jsonl`` holds what ``housealloc verify`` printed and wrote with
``--json`` for all eight properties on allocations below the welfare
maxima, so every welfare-gap witness shows its exemplar, and
``report.json`` holds the output and every file of one ``report --sp on``
run.  They pin the witness documents, exemplars included.

``tests/golden_replay.py`` replays the whole corpus through the command
line; it runs here in-process and under every other supported Python.

``python tests/test_golden.py`` rewrites the corpus from the current code;
run it only to redefine the cases, never to absorb a change in output.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from golden_replay import ALLOCATIONS, GOLDEN, load, mismatches, report_output, verify_output

from housealloc import fileio
from housealloc.cli import _parse_permutation
from housealloc.gen import GenParams, random_instance, trial_params
from housealloc.mechanisms import Mechanism, run_mechanism


def _trial_cases():
    """Sweeps of the report schedule: both regimes, both orders."""
    for master, count, size in ((2017, 200, 6), (2018, 100, 9)):
        for trial in range(count):
            params = trial_params(master, trial, size, size)
            order = "identity" if (trial // 2) % 2 == 0 else f"seed:{master + trial}"
            for mech in Mechanism:
                yield f"trial-{master}-{trial}-{mech.value}", params, mech, order


def _market_cases():
    """Seeded markets at n = 40..120: balanced (n = m) and contended (m = n/2),
    each under one order, the two orders alternating."""
    markets = (
        ("balanced", 40, 40, 0.8, 0.075),
        ("balanced", 60, 60, 0.8, 0.5),
        ("balanced", 80, 80, 0.8, 0.0375),
        ("balanced", 120, 120, 0.8, 0.025),
        ("contended", 40, 20, 0.5, 0.1),
        ("contended", 80, 40, 0.5, 0.1),
        ("contended", 120, 60, 0.5, 0.1),
    )
    for k, (kind, n, m, endow, accept) in enumerate(markets):
        params = GenParams(n, m, endow, accept, 5_000_000 + k)
        label, order = ("identity", "identity") if k % 2 == 0 else ("seeded", f"seed:{6_000_000 + k}")
        for mech in Mechanism:
            yield f"{kind}-{n}x{m}-{label}-{mech.value}", params, mech, order


GROUPS = {"trials": _trial_cases, "markets": _market_cases}


def _document(params: GenParams, mech: Mechanism, order: str) -> str:
    instance = random_instance(params)
    result = run_mechanism(instance, mech, _parse_permutation(order))
    return fileio.dumps_allocation(instance, result.allocation, result.trace)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_documents_byte_identical(group):
    entries = load(group)
    expected_ids = [case_id for case_id, *_ in GROUPS[group]()]
    assert [e["id"] for e in entries] == expected_ids  # corpus complete, in order
    mismatched = []
    for entry in entries:
        params = GenParams(**entry["params"])
        got = _document(params, Mechanism(entry["mechanism"]), entry["permutation"])
        if got != entry["document"]:
            mismatched.append(entry["id"])
    assert not mismatched, f"{len(mismatched)} documents changed: {mismatched[:10]}"


def _verify_cases():
    """trial_params markets up to 7x7, the 7x7 ones on odd trials."""
    for trial in range(40):
        for kind in ALLOCATIONS:
            yield f"verify-{trial}-{kind}", trial_params(2024, trial, 7, 7), kind


def test_verify_documents_byte_identical():
    entries = load("verify")
    assert [e["id"] for e in entries] == [case_id for case_id, *_ in _verify_cases()]
    mismatched = [
        e["id"] for e in entries
        if verify_output(e["params"], e["allocation"])
        != {k: e[k] for k in ("exit", "stdout", "document")}
    ]
    assert not mismatched, f"{len(mismatched)} verify outputs changed: {mismatched[:10]}"
    # the corpus shows every welfare target's exemplar
    reports = [json.loads(e["document"]) for e in entries]
    for key in ("maxw", "maxw-ir", "maxw-sir"):
        assert any(not report[key]["holds"] for report in reports), key


def test_report_files_byte_identical():
    expected = json.loads((GOLDEN / "report.json").read_text(encoding="utf-8"))
    got = report_output()
    assert got["files"].keys() == expected["files"].keys()
    assert got == expected


def test_mir_rounds_weigh_w_or_nothing():
    # A MIR round either keeps a weight-W optimum or finds no perfect
    # matching at all: no MIR round in the corpus records any other weight.
    rounds = [
        (round_["weight"], trace["W"])
        for group in GROUPS
        for entry in load(group)
        if entry["mechanism"] == "mir"
        for trace in [json.loads(entry["document"])["trace"]]
        for round_ in trace["rounds"]
    ]
    assert rounds
    assert all(weight in (w, None) for weight, w in rounds)


def test_golden_replay_through_the_cli():
    # Besides verify and report, this rebuilds every run document through
    # `gen` and `run`, where the tests above call the generator and the
    # mechanism directly.
    assert mismatches() == []


def _interpreter(version: str) -> str | None:
    """A runnable ``python<version>``: pyenv's own build first, then PATH."""
    candidates = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python{version}"))
    candidates.append(Path(f"python{version}"))
    for exe in candidates:
        try:
            probe = subprocess.run(
                [str(exe), "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30,
            )
        except OSError:
            continue
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return str(exe)
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_golden_replay_under_each_supported_python(version):
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no runnable python{version} found")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [exe, str(root / "tests" / "golden_replay.py")],
        capture_output=True, text=True, env=env, cwd=root, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _write(group: str) -> None:
    GOLDEN.mkdir(exist_ok=True)
    lines = []
    for case_id, params, mech, order in GROUPS[group]():
        entry = {
            "id": case_id,
            "params": asdict(params),
            "mechanism": mech.value,
            "permutation": order,
            "document": _document(params, mech, order),
        }
        lines.append(json.dumps(entry, ensure_ascii=False) + "\n")
    (GOLDEN / f"{group}.jsonl").write_text("".join(lines), encoding="utf-8")


def _write_verify() -> None:
    lines = [
        json.dumps({"id": case_id, "params": asdict(params), "allocation": kind,
                    **verify_output(asdict(params), kind)}, ensure_ascii=False) + "\n"
        for case_id, params, kind in _verify_cases()
    ]
    (GOLDEN / "verify.jsonl").write_text("".join(lines), encoding="utf-8")


def _write_report() -> None:
    text = json.dumps(report_output(), indent=1, ensure_ascii=False) + "\n"
    (GOLDEN / "report.json").write_text(text, encoding="utf-8")


WRITERS = {**{name: functools.partial(_write, name) for name in GROUPS},
           "verify": _write_verify, "report": _write_report}


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WRITERS):
        WRITERS[name]()
