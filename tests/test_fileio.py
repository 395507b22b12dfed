"""The document writer against the standard library's encoder."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housealloc.fileio import dumps_json

# Any code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=DOCUMENTS)
def test_writer_matches_json_dumps(doc):
    assert dumps_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "doc",
    [[], {}, [[], {}, [[]]], {"a": {"b": []}}, ["x", "\ud800", "\n\x00 "], ["a", 1, None],
     [True, False, None, 0, -1, 2**200]],
)
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert dumps_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("doc", [1.5, ("a",), {1: "a"}, {"a": frozenset()}, ["a", 2.0]])
def test_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        dumps_json(doc)
