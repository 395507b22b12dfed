"""Golden corpus: canonical allocation documents, traces included, re-run
byte for byte.

Each line of ``tests/golden/*.jsonl`` names one case (generator parameters,
mechanism, permutation spec) and the exact document ``housealloc run``
wrote for it when the corpus was recorded.  Any change to the solver or the
refinement that moves a single byte of any output fails here.

``python tests/test_golden.py`` rewrites the corpus from the current code;
run it only to redefine the cases, never to absorb a change in output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from housealloc import fileio
from housealloc.cli import _parse_permutation
from housealloc.gen import GenParams, random_instance, trial_params
from housealloc.mechanisms import Mechanism, run_mechanism

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


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(GROUPS):
        _write(name)
