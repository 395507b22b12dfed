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

``python tests/test_golden.py`` rewrites the corpus from the current code;
run it only to redefine the cases, never to absorb a change in output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from housealloc import fileio
from housealloc.cli import _parse_permutation, main
from housealloc.gen import GenParams, random_instance, trial_params
from housealloc.mechanisms import Mechanism, run_mechanism
from housealloc.model import Allocation
from housealloc.oracles import PROPERTY_KEYS

GOLDEN = Path(__file__).parent / "golden"


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


def _load(group: str) -> list[dict]:
    path = GOLDEN / f"{group}.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_documents_byte_identical(group):
    entries = _load(group)
    expected_ids = [case_id for case_id, *_ in GROUPS[group]()]
    assert [e["id"] for e in entries] == expected_ids  # corpus complete, in order
    mismatched = []
    for entry in entries:
        params = GenParams(**entry["params"])
        got = _document(params, Mechanism(entry["mechanism"]), entry["permutation"])
        if got != entry["document"]:
            mismatched.append(entry["id"])
    assert not mismatched, f"{len(mismatched)} documents changed: {mismatched[:10]}"


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


# Allocations below the welfare maxima: every agent keeps its endowment (IR
# and S-IR, so short of a maximum only in welfare), or nobody gets a house.
ALLOCATIONS = {
    "endowments": lambda instance: dict(instance.endowment),
    "nothing": lambda instance: {},
}


def _verify_cases():
    """trial_params markets up to 7x7, the 7x7 ones on odd trials."""
    for trial in range(40):
        for kind in ALLOCATIONS:
            yield f"verify-{trial}-{kind}", trial_params(2024, trial, 7, 7), kind


def _verify(params: GenParams, kind: str) -> dict:
    instance = random_instance(params)
    allocation = Allocation(ALLOCATIONS[kind](instance))
    with tempfile.TemporaryDirectory() as tmp:
        inst, alloc, report = (Path(tmp) / name for name in ("i.json", "a.json", "r.json"))
        inst.write_text(fileio.dumps_instance(instance), encoding="utf-8")
        alloc.write_text(fileio.dumps_allocation(instance, allocation), encoding="utf-8")
        code, stdout = _cli(["verify", str(inst), str(alloc), "--properties",
                             ",".join(PROPERTY_KEYS), "--json", str(report)])
        return {"exit": code, "stdout": stdout, "document": report.read_text(encoding="utf-8")}


REPORT_ARGS = ["report", "--sp", "on", "--trials", "20", "--seed", "15",
               "--max-agents", "5", "--max-houses", "5"]


def _report() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = _cli(REPORT_ARGS + ["--out-dir", tmp])
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(tmp).iterdir())}
    return {"argv": REPORT_ARGS, "exit": code, "stdout": stdout.replace(tmp, "OUT"),
            "files": files}


def test_verify_documents_byte_identical():
    entries = _load("verify")
    assert [e["id"] for e in entries] == [case_id for case_id, *_ in _verify_cases()]
    mismatched = [
        e["id"] for e in entries
        if _verify(GenParams(**e["params"]), e["allocation"])
        != {k: e[k] for k in ("exit", "stdout", "document")}
    ]
    assert not mismatched, f"{len(mismatched)} verify outputs changed: {mismatched[:10]}"
    # the corpus shows every welfare target's exemplar
    reports = [json.loads(e["document"]) for e in entries]
    for key in ("maxw", "maxw-ir", "maxw-sir"):
        assert any(not report[key]["holds"] for report in reports), key


def test_report_files_byte_identical():
    expected = json.loads((GOLDEN / "report.json").read_text(encoding="utf-8"))
    got = _report()
    assert got["files"].keys() == expected["files"].keys()
    assert got == expected


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
                    **_verify(params, kind)}, ensure_ascii=False) + "\n"
        for case_id, params, kind in _verify_cases()
    ]
    (GOLDEN / "verify.jsonl").write_text("".join(lines), encoding="utf-8")


def _write_report() -> None:
    text = json.dumps(_report(), indent=1, ensure_ascii=False) + "\n"
    (GOLDEN / "report.json").write_text(text, encoding="utf-8")


WRITERS = {**{name: functools.partial(_write, name) for name in GROUPS},
           "verify": _write_verify, "report": _write_report}


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WRITERS):
        WRITERS[name]()
