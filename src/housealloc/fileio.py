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

One writer, :func:`dumps_json`, writes every document the program emits:
instances, allocations, ``verify --json`` reports and ``report`` witness
files.  Its text is byte for byte ``json.dumps(doc, indent=2,
ensure_ascii=False) + "\n"``, which runs the standard library's pure-Python
encoder whenever ``indent`` is set; the writer joins the same pieces
directly instead.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
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


def dumps_json(doc: Any) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"``
    writes it, for documents built from dicts with string keys, lists,
    strings, ints, bools and None; any other type raises ``TypeError``."""
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out``; ``newline`` is the line break plus
    the indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:  # a list of strings, the common case, in one join
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} into a document")


def dumps_instance(instance: Instance) -> str:
    agents = []
    for a in instance.agents:
        acceptable = [h for h in instance.houses if h in instance.acceptable[a]]
        agents.append(
            {"id": a, "endowment": instance.endowment.get(a), "acceptable": acceptable}
        )
    return dumps_json({"agents": agents, "houses": list(instance.houses)})


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
    """The allocation document; a trace dict, as :func:`loads_allocation`
    returns it, is written exactly as given."""
    doc: dict[str, Any] = {
        "allocation": {a: allocation.house_of(a) for a in instance.agents},
        "welfare": welfare(instance, allocation),
    }
    if isinstance(trace, MechanismTrace):
        doc["trace"] = trace_to_doc(trace, instance)
    elif trace is not None:
        doc["trace"] = trace
    return dumps_json(doc)


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


def witness_to_doc(witness: Any) -> Any:
    """Machine-readable rendering of an oracle witness, or None for none."""
    return None if witness is None else witness.doc()


def report_to_doc(verdicts: dict[str, Any]) -> dict[str, Any]:
    """The ``verify --json`` document of the verdicts by property key."""
    return {
        key: {"holds": verdict.holds, "witness": witness_to_doc(verdict.witness)}
        for key, verdict in verdicts.items()
    }
