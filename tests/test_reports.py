import gc
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorfact.reports import dump_json


def stdlib_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# strings with non-ASCII, quote, backslash and control characters among them
_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U0001f600'),
                       st.characters()),
    max_size=8,
)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    _TEXT,
)

_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_dump_json_equals_the_stdlib_encoder(doc):
    assert dump_json(doc) == stdlib_dump(doc)


@pytest.mark.parametrize(
    "doc",
    [{}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]]], {"b": 1, "a": [True, None, -(2**70)]}, "x", 0],
)
def test_dump_json_empty_containers_and_scalars(doc):
    assert dump_json(doc) == stdlib_dump(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1.5},
        [0.0],
        {"a": {1: "int key"}},
        {("t",): 1},
        {"a": F(1, 2)},
        {"a": {1, 2}},
        {"a": b"bytes"},
    ],
    ids=["float", "float-in-list", "int-key", "tuple-key", "fraction", "set", "bytes"],
)
def test_dump_json_refuses_floats_keys_and_other_types(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def test_dump_json_leaves_no_cycles_behind():
    # a writer that closes over itself would form a cycle per call, which
    # keeps each report's parts alive until the cyclic collector runs
    doc = {"pairs": [{"a": str(i), "b": [i, -i, None], "c": {"d": True}} for i in range(200)]}
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        dump_json(doc)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
