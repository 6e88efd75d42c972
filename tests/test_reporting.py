import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecovers.reporting import round_sig, stable_text

from oracles import json_stable_text


def test_round_sig_12_digits():
    assert round_sig(2.2618022452599717) == 2.26180224526
    assert round_sig(0.0) == 0.0
    assert round_sig(-1.0 / 3.0) == -0.333333333333


def test_stable_text_sorted_and_terminated():
    text = stable_text({"b": 1, "a": [1.0, 2.0]})
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == {"a": [1.0, 2.0], "b": 1}
    assert text.index('"a"') < text.index('"b"')


def test_stable_text_canonicalizes_floats():
    t1 = stable_text({"x": 2.261802245259971})
    t2 = stable_text({"x": 2.2618022452599640})
    assert t1 == t2


def test_stable_text_rejects_unknown_types():
    for value in (object(), np.int64(3)):
        for doc in ({"x": value}, [1, [value]], value):
            with pytest.raises(TypeError):
                stable_text(doc)
            with pytest.raises(TypeError):
                json_stable_text(doc)


def test_stable_text_identical_runs():
    doc = {"eigenvalues": [1.0 / 3.0, -2.0 / 7.0], "n": 2, "flag": True, "none": None}
    assert stable_text(doc) == stable_text(doc)


STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "caf\u00e9", "\u65e5\u672c", "\U0001f600",
                     "line\nbreak\ttab"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 2.2618022452599717]),
    STRINGS,
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(-3, 3), STRINGS), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_stable_text_matches_the_json_encoder(doc):
    assert stable_text(doc) == json_stable_text(doc)
