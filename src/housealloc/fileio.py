"""Canonical JSON file formats for instances, allocations and reports.

Instance documents::

    {"agents": [{"id": "1", "endowment": "h1", "acceptable": ["h2"]}, ...],
     "houses": ["h1", ...]}

Allocation documents::

    {"allocation": {"1": "h2", ...}, "welfare": 2, "trace": {...}}

Serialization is canonical: keys in the order shown, agents and houses in
instance order, acceptable lists in house order, every agent present in the
allocation map (null for "receives nothing"), two-space indentation and a
trailing newline.  Parsing rejects unknown keys, so a canonical document
round-trips byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from .mechanisms import MechanismTrace
from .model import (
    Allocation,
    Instance,
    InvalidAllocation,
    validate_allocation,
    validate_instance,
    welfare,
)
from . import oracles


class FileFormatError(ValueError):
    pass


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise FileFormatError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise FileFormatError(f"{where}: missing key(s) {sorted(missing)}")


def load_json(text: str, prefix: str, error: type[ValueError]) -> Any:
    """``json.loads(text)``, raising ``error`` ("``prefix``: reason") for
    text that is not JSON, nests too deeply to decode or holds an integer
    literal too long to convert (a plain ``ValueError``, of which
    ``JSONDecodeError`` is a subclass)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{prefix}: {exc}") from exc


def dumps_instance(instance: Instance) -> str:
    agents = []
    for a in instance.agents:
        acceptable = [h for h in instance.houses if h in instance.acceptable[a]]
        agents.append(
            {"id": a, "endowment": instance.endowment.get(a), "acceptable": acceptable}
        )
    doc = {"agents": agents, "houses": list(instance.houses)}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def loads_instance(text: str) -> Instance:
    doc = load_json(text, "not valid JSON", FileFormatError)
    if not isinstance(doc, dict):
        raise FileFormatError("instance document must be a JSON object")
    _require_keys(doc, {"agents", "houses"}, set(), "instance document")
    if not isinstance(doc["houses"], list) or not all(
        isinstance(h, str) for h in doc["houses"]
    ):
        raise FileFormatError('"houses" must be a list of strings')
    if not isinstance(doc["agents"], list):
        raise FileFormatError('"agents" must be a list')
    agents: list[str] = []
    endowment: dict[str, str | None] = {}
    acceptable: dict[str, list[str]] = {}
    for pos, entry in enumerate(doc["agents"]):
        where = f'"agents"[{pos}]'
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where} must be an object")
        _require_keys(entry, {"id", "endowment", "acceptable"}, set(), where)
        if not isinstance(entry["id"], str):
            raise FileFormatError(f'{where}: "id" must be a string')
        own = entry["endowment"]
        if own is not None and not isinstance(own, str):
            raise FileFormatError(f'{where}: "endowment" must be a house id or null')
        wanted = entry["acceptable"]
        if not isinstance(wanted, list) or not all(isinstance(h, str) for h in wanted):
            raise FileFormatError(f'{where}: "acceptable" must be a list of house ids')
        agents.append(entry["id"])
        endowment[entry["id"]] = own
        acceptable[entry["id"]] = wanted
    return validate_instance(agents, doc["houses"], endowment, acceptable)


def trace_to_doc(trace: MechanismTrace, instance: Instance) -> dict[str, Any]:
    return {
        "W": trace.initial_weight,
        "permutation": list(trace.permutation),
        "t": {a: trace.satisfied_flags[a] for a in instance.agents},
        "rounds": [
            {
                "agent": r.agent,
                "removed": list(r.removed),
                "weight": r.weight,
                "accepted": r.accepted,
            }
            for r in trace.rounds
        ],
    }


def dumps_allocation(
    instance: Instance,
    allocation: Allocation,
    trace: MechanismTrace | dict[str, Any] | None = None,
) -> str:
    doc: dict[str, Any] = {
        "allocation": {a: allocation.house_of(a) for a in instance.agents},
        "welfare": welfare(instance, allocation),
    }
    if trace is not None:
        if isinstance(trace, MechanismTrace):
            doc["trace"] = trace_to_doc(trace, instance)
        else:
            doc["trace"] = _normalize_trace_doc(trace, instance)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _normalize_trace_doc(trace: dict[str, Any], instance: Instance) -> dict[str, Any]:
    _require_keys(trace, {"W", "permutation", "t", "rounds"}, set(), '"trace"')
    return {
        "W": trace["W"],
        "permutation": trace["permutation"],
        "t": {a: trace["t"][a] for a in instance.agents if a in trace["t"]},
        "rounds": [
            {
                "agent": r["agent"],
                "removed": r["removed"],
                "weight": r["weight"],
                "accepted": r["accepted"],
            }
            for r in trace["rounds"]
        ],
    }


def loads_allocation(
    text: str, instance: Instance
) -> tuple[Allocation, int, dict[str, Any] | None]:
    """Parse an allocation document against its instance.

    Returns the allocation, the stated welfare (verified against the
    recomputed value) and the raw trace object if one was present.
    """
    doc = load_json(text, "not valid JSON", FileFormatError)
    if not isinstance(doc, dict):
        raise FileFormatError("allocation document must be a JSON object")
    _require_keys(doc, {"allocation", "welfare"}, {"trace"}, "allocation document")
    raw = doc["allocation"]
    if not isinstance(raw, dict):
        raise FileFormatError('"allocation" must be an object')
    assignment: dict[str, str | None] = {}
    for agent, house in raw.items():
        if agent not in instance.agent_index:
            raise FileFormatError(f'"allocation" names unknown agent {agent!r}')
        if house is not None and not isinstance(house, str):
            raise FileFormatError(f'"allocation"[{agent!r}] must be a house id or null')
        assignment[agent] = house
    allocation = Allocation(assignment=assignment)
    try:
        validate_allocation(instance, allocation)
    except InvalidAllocation as exc:
        raise FileFormatError(str(exc)) from exc
    stated = doc["welfare"]
    if not isinstance(stated, int) or isinstance(stated, bool):
        raise FileFormatError('"welfare" must be an integer')
    actual = welfare(instance, allocation)
    if stated != actual:
        raise FileFormatError(f'"welfare" is {stated} but the allocation gives {actual}')
    trace = doc.get("trace")
    if trace is not None:
        if not isinstance(trace, dict):
            raise FileFormatError('"trace" must be an object')
        _require_keys(trace, {"W", "permutation", "t", "rounds"}, set(), '"trace"')
    return allocation, stated, trace


def witness_to_doc(witness: object) -> Any:
    """Machine-readable rendering of any oracle witness."""
    if witness is None:
        return None
    if isinstance(witness, oracles.DominationWitness):
        return {
            "kind": "dominating-allocation",
            "allocation": dict(witness.allocation.assignment),
        }
    if isinstance(witness, oracles.BlockingWitness):
        return {
            "kind": "blocking-coalition",
            "coalition": list(witness.coalition),
            "reallocation": dict(witness.reallocation),
        }
    if isinstance(witness, oracles.WeakBlockingWitness):
        return {
            "kind": "weakly-blocking-coalition",
            "coalition": list(witness.coalition),
            "reallocation": dict(witness.reallocation),
            "improving_agent": witness.improving_agent,
        }
    if isinstance(witness, oracles.ManipulationWitness):
        return {
            "kind": "profitable-misreport",
            "agent": witness.agent,
            "reported": sorted(witness.reported),
            "truthful_utility": witness.truthful_utility,
            "misreport_utility": witness.misreport_utility,
        }
    if isinstance(witness, oracles.WelfareGapWitness):
        return {
            "kind": "welfare-gap",
            "achieved": witness.achieved,
            "target": witness.target,
            "exemplar": dict(witness.exemplar.assignment),
        }
    if isinstance(witness, oracles.ViolationWitness):
        return {"kind": "rationality-violation", **asdict(witness)}
    raise TypeError(f"cannot serialize witness {witness!r}")


def report_to_doc(report: oracles.PropertyReport) -> dict[str, Any]:
    return {
        key: {"holds": verdict.holds, "witness": witness_to_doc(verdict.witness)}
        for key, verdict in report.verdicts.items()
    }
