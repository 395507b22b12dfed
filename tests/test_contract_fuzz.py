"""A contract fuzzer for ``cli.main``.

Whatever the instance, permutation and allocation files hold, ``run`` and
``verify`` end with exit 0, 1, 2 or 4, never 3 (internal error).  An
exit-0 ``run`` writes a document that reloads to the same bytes, and a
rerun on the instance's canonical form writes the same bytes again.

The generated files have adversarial ids (lone surrogates, NUL, the
``~dummy_house_k`` labels a trace uses, empty, non-ASCII), integer literals
past CPython's 4,300-digit conversion limit, arrays nested too deeply to
decode, NaN and Infinity, and wrong types, missing keys and extra keys at
every level.  Each file is written as UTF-8, UTF-8 with a byte-order mark
or UTF-16 (not UTF-8 at all), and the output paths of ``run --output`` and
``verify --json`` may be a directory or sit in a missing one, which must
exit 2.  Inputs that once broke the contract are kept as
``tests/fixtures/fuzz_*.json`` (an object with the ``instance``,
``permutation`` and ``allocation`` file texts, the last two possibly null,
and optionally ``encoding``, the codec of each file not in UTF-8, and
``output``, the kind of output path) and replayed first.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housealloc.cli import main
from housealloc.fileio import dumps_allocation, dumps_instance, loads_allocation, loads_instance
from housealloc.oracles import PROPERTY_KEYS

FIXTURES = Path(__file__).parent / "fixtures"
ALLOWED = {0, 1, 2, 4}
HUGE = "<huge int>"  # stands for a 5,000-digit literal; longer than any drawn text
DEEP = "<deep array>"  # stands for arrays nested 100,000 deep
ROLES = ("instance", "permutation", "allocation")
CODECS = ("utf-8", "utf-8-sig", "utf-16")  # utf-8-sig writes a byte-order mark
OUTPUTS = ("file", "file", "file", "directory", "missing directory")
ADVERSARIAL_IDS = [
    "\ud800", "x\udfff", "\x00", "~dummy_house_0", "~dummy_house_1", "", "é", "名", "h0", "a0",
]

ids = st.one_of(st.sampled_from(ADVERSARIAL_IDS), st.text(max_size=3))
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(HUGE),
    st.just(DEEP),
    ids,
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def to_text(doc) -> str:
    """JSON text of ``doc``, lone surrogates escaped and ``HUGE`` and
    ``DEEP`` spelled out."""
    text = json.dumps(doc).replace(json.dumps(HUGE), "9" * 5000)
    return text.replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


@st.composite
def breakage(draw, doc, entries):
    """``doc`` with up to two keys of it or of its ``entries`` replaced by
    junk, deleted or joined by an extra key; or junk in place of it."""
    if draw(st.integers(0, 9)) == 9:
        return draw(junk)
    targets = [doc, *entries]
    for op, i, value in draw(
        st.lists(st.tuples(st.sampled_from(["replace", "delete", "add"]), st.integers(0, 9), junk),
                 max_size=2)
    ):
        target = targets[i % len(targets)]
        keys = list(target)
        if op == "add":
            target["extra"] = value
        elif keys and op == "replace":
            target[keys[i % len(keys)]] = value
        elif keys:
            del target[keys[i % len(keys)]]
    return doc


@st.composite
def cases(draw):
    houses = draw(st.lists(ids, max_size=4, unique=True))
    agents = draw(st.lists(ids, max_size=4, unique=True))
    house = st.sampled_from(houses) if houses else st.nothing()
    entries = [
        {
            "id": agent,
            "endowment": draw(st.one_of(st.none(), house)),
            "acceptable": draw(st.lists(house, max_size=3) if houses else st.just([])),
        }
        for agent in agents
    ]
    instance = draw(breakage({"agents": entries, "houses": houses}, entries))
    permutation = draw(st.one_of(st.none(), st.permutations(agents), junk))
    assignment = {a: draw(st.one_of(st.none(), house, junk)) for a in agents}
    allocation = draw(st.one_of(
        st.none(),
        breakage({"allocation": assignment, "welfare": draw(st.integers(0, 4))}, []),
    ))
    return {
        "instance": to_text(instance),
        "permutation": None if permutation is None else to_text(permutation),
        "allocation": None if allocation is None else to_text(allocation),
        "encoding": {role: draw(st.sampled_from(CODECS)) for role in ROLES},
        "output": draw(st.sampled_from(OUTPUTS)),
    }


def cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def check_contract(case: dict, mechanism: str) -> None:
    encoding = case.get("encoding", {})
    kind = case.get("output", "file")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for role in ROLES:
            if case[role] is not None:
                files[role] = tmp / f"{role}.json"
                files[role].write_bytes(case[role].encode(encoding.get(role, "utf-8")))
        inst = files["instance"]
        order = ["--permutation", f"file:{files['permutation']}"] if "permutation" in files else []
        unwritable = {"directory": tmp, "missing directory": tmp / "missing" / "out.json"}
        every = ",".join(PROPERTY_KEYS)
        if "allocation" in files:
            report = unwritable.get(kind, tmp / "report.json")
            code = cli("verify", str(inst), str(files["allocation"]), "--properties", every,
                       "--json", str(report))
            assert code in ({2, 4} if kind in unwritable else ALLOWED)

        out = unwritable.get(kind, tmp / "out.json")
        code = cli("run", str(inst), "--mechanism", mechanism, *order, "--output", str(out))
        assert code == 2 if kind in unwritable else code in ALLOWED
        if code != 0:
            return
        text = out.read_text(encoding="utf-8")
        instance = loads_instance(case["instance"])
        allocation, _, trace = loads_allocation(text, instance)
        assert dumps_allocation(instance, allocation, trace) == text
        assert cli("verify", str(inst), str(out), "--properties", every) in {0, 1}
        canonical = tmp / "canonical.json"
        canonical.write_text(dumps_instance(instance), encoding="utf-8")
        again = tmp / "again.json"
        assert cli("run", str(canonical), "--mechanism", mechanism, *order,
                   "--output", str(again)) == 0
        assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("mechanism", ["msir", "mir"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("fuzz_*.json")), ids=lambda p: p.stem)
def test_kept_failures_hold_the_contract(path, mechanism):
    check_contract(json.loads(path.read_text(encoding="utf-8")), mechanism)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=cases(), mechanism=st.sampled_from(["msir", "mir"]))
def test_cli_holds_its_exit_code_contract(case, mechanism):
    check_contract(case, mechanism)
