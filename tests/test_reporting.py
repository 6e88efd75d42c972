import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecovers.reporting import (BLOCK, IntBlocks, digit_table, id_text, round_sig,
                                   stable_text, write_stable)

from oracles import json_stable_text, pairs_text_by_format


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


# ---------------------------------------------------------------- int arrays
# Lists and tuples of ints, and of rows of ints, go through the general path,
# which must give the text of the standard library's encoder.


class Count(int):
    def __repr__(self):
        return "Count()"


def _assert_oracle_text(*docs):
    for doc in docs:
        assert stable_text(doc) == json_stable_text(doc)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
def test_int_arrays_across_the_block_edge(n):
    ints = list(range(-(n // 2), n - n // 2))
    rows = [[i, -i, 7 * i] for i in range(n)]
    _assert_oracle_text(ints, tuple(ints), rows, {"ints": ints, "rows": rows})


@pytest.mark.parametrize("kind", ["list", "tuple", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_int_rows_as_lists_tuples_and_mixed(k, kind):
    rows = [list(range(i, i + k)) for i in range(1500)]
    if kind != "list":
        rows = [tuple(row) if kind == "tuple" or i % 3 else row for i, row in enumerate(rows)]
    _assert_oracle_text(rows, tuple(rows), [rows])


def test_ragged_and_empty_rows():
    pairs = [[i, i + 1] for i in range(1500)]
    _assert_oracle_text(
        [[1, 2], [3]], [(1,), (2, 3)], [[]], [[], []], [(), ()], [[1, 2], []], [[], [1, 2]],
        pairs + [[3]], [[3]] + pairs, pairs[:1100] + [()] + pairs[1100:],
        [[1, 2], [3, 4, 5]] * 700,
    )


ODD_MEMBERS = {"true": True, "false": False, "none": None, "float": 0.1 + 0.2,
               "str": "7", "int_subclass": Count(7)}


@pytest.mark.parametrize("where", [0, 1100, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("odd", list(ODD_MEMBERS.values()), ids=list(ODD_MEMBERS))
def test_one_odd_member_keeps_the_general_path(odd, where):
    ints = list(range(2500))
    ints[where] = odd
    rows = [[i, -i] for i in range(2500)]
    rows[where] = [odd, 1]
    inner_last = [[i, -i] for i in range(2500)]
    inner_last[where] = (1, odd)
    scalar_row = [[i, -i] for i in range(2500)]
    scalar_row[where] = odd
    _assert_oracle_text(ints, rows, inner_last, scalar_row)


def test_negative_and_past_int64_ints():
    values = [-(2 ** 70), -(2 ** 63) - 1, -(2 ** 63), -1, 0, 2 ** 63 - 1, 2 ** 63, 10 ** 30]
    _assert_oracle_text(values * 300, [[x, -x, x // 3] for x in values * 300])


def test_int_arrays_nested_at_several_indents():
    ints = list(range(-5, 1100))
    rows = [(i, i * i) for i in range(1100)]
    doc = {"a": ints, "b": {"c": rows, "d": {"e": [rows, ints, []], "f": [[ints]]}},
           "g": [{"h": rows}, ints, [[1], [2]]], "i": []}
    _assert_oracle_text(doc, [doc, doc])


# ---------------------------------------------------------------- int ndarrays
# An integer array of unsigned values is written as an IntBlocks, BLOCK
# members per write, one of signed values as the list of its values; a bare
# ndarray of any dtype or rank is refused.


def _one_block(array: np.ndarray) -> IntBlocks:
    """The array as one block, bounded just above its largest value."""
    return IntBlocks(lambda: [array], int(array.max(initial=0)) + 1)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025])
def test_int_ndarrays_across_the_block_edge(n, dtype):
    ints = np.arange(n, dtype=dtype)
    pairs = np.arange(2 * n, dtype=dtype).reshape(n, 2)
    triples = (np.arange(3 * n, dtype=dtype) % 100).reshape(n, 3)
    no_columns = np.zeros((n, 0), dtype=dtype)

    def docs(wrap):
        return [wrap(ints), wrap(pairs), wrap(triples),
                {"ints": wrap(ints), "rows": {"pairs": wrap(pairs),
                                              "triples": [wrap(triples), wrap(ints)]}}]

    for blocks, doc in zip(docs(_one_block), docs(lambda array: array)):
        assert stable_text(blocks) == json_stable_text(doc)
    _assert_oracle_text(no_columns.tolist())
    assert stable_text(_one_block(pairs)) == stable_text(pairs.tolist())


def test_signed_int_ndarrays_match_their_lists():
    values = np.array([-(2 ** 63), -1, 0, 1, 2 ** 63 - 1] * 500, dtype=np.int64)
    for array in (values, values.reshape(-1, 5), values.astype(np.int32) // 7):
        assert stable_text(array.tolist()) == json_stable_text(array)


def test_int_ndarray_writes_at_most_one_block_per_piece():
    rows = np.arange(200_000).reshape(-1, 2)
    pieces: list[str] = []
    write_stable(_one_block(rows), pieces.append)
    assert "".join(pieces) == json_stable_text(rows)
    assert len(pieces) == -(-len(rows) // BLOCK) + 2


@pytest.mark.parametrize("array", [np.zeros(3), np.ones((2, 2), dtype=bool),
                                   np.zeros((2, 2, 2), int), np.array(5), np.array([1 + 2j]),
                                   np.array(["a"])],
                         ids=["float", "bool", "3-d", "0-d", "complex", "str"])
def test_other_ndarrays_are_refused(array):
    for doc in ({"x": array}, [1, array], array):
        with pytest.raises(TypeError):
            stable_text(doc)
        with pytest.raises(TypeError):
            json_stable_text(doc)


@pytest.mark.parametrize("array", [np.arange(5), np.arange(6).reshape(3, 2),
                                   np.arange(5, dtype=np.uint8), np.array([-1, 2]),
                                   np.zeros((2, 0), int), np.zeros(0, int)],
                         ids=["1-d", "2-d", "uint8", "signed", "no-columns", "empty"])
def test_raw_int_ndarrays_are_refused(array):
    # Integer arrays go out as IntBlocks only, through one writer.
    for doc in ({"x": array}, [1, array], array):
        with pytest.raises(TypeError, match="cannot serialize"):
            stable_text(doc)


# ---------------------------------------------------------------- blocked int arrays
# An IntBlocks value is written byte for byte as the array its blocks
# concatenate, whatever the cuts, and anew each time it is written.


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2600), st.sampled_from([0, 1, 2, 3]), st.data())
def test_int_blocks_write_the_whole_array(n, columns, data):
    whole = np.arange(n * max(columns, 1), dtype=np.int64)
    if columns:
        whole = whole.reshape(n, columns)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    blocks = IntBlocks(lambda: np.split(whole, cuts), whole.size)
    listed = whole.tolist()
    for doc, as_list in (({"a": blocks, "b": [blocks, 1]}, {"a": listed, "b": [listed, 1]}),
                         (blocks, listed)):
        assert stable_text(doc) == stable_text(as_list) == json_stable_text(as_list)
        assert stable_text(doc) == stable_text(doc)


def test_int_blocks_write_each_block_in_pieces_of_at_most_block_members():
    blocks = IntBlocks(lambda: (np.arange(2 * n).reshape(n, 2) for n in (3000, 0, 5)), 6000)
    pieces: list[str] = []
    write_stable(blocks, pieces.append)
    assert len(pieces) == 3 + 1 + 2
    assert "".join(pieces) == json_stable_text(np.concatenate(list(blocks.make())))


@pytest.mark.parametrize("block", [np.array([1.7, 2.2]), np.array([True, False]),
                                   np.zeros((2, 2, 2), int), np.zeros((2, 0), int),
                                   np.array(5), [1, 2]],
                         ids=["float", "bool", "3-d", "no-columns", "0-d", "list"])
def test_int_blocks_refuse_a_block_that_is_not_an_int_array(block):
    for blocks in ([block], [np.arange(2), block]):
        with pytest.raises(TypeError):
            stable_text({"a": IntBlocks(lambda: blocks, 10)})


@pytest.mark.parametrize("first, later", [(np.arange(4).reshape(2, 2), np.arange(2)),
                                          (np.arange(2), np.arange(4).reshape(2, 2)),
                                          (np.arange(4).reshape(2, 2), np.arange(6).reshape(2, 3)),
                                          (np.zeros(0, int), np.zeros((0, 2), int))],
                         ids=["2-d then 1-d", "1-d then 2-d", "2 then 3 columns", "empty"])
def test_int_blocks_refuse_blocks_of_another_shape(first, later):
    with pytest.raises(ValueError):
        stable_text(IntBlocks(lambda: [first, later], 10))


@pytest.mark.parametrize("bad", [-1, 10, 2 ** 40])
def test_int_blocks_refuse_an_id_outside_the_bound(bad):
    for block in (np.array([0, bad, 3]), np.array([[0, 9], [bad, 3]])):
        with pytest.raises(ValueError, match="out of range"):
            stable_text(IntBlocks(lambda: [block], 10))


# ---------------------------------------------------------------- id text
# id_text gathers each id's digits from digit_table; the oracle formats the
# same rows with one % per block.

BOUNDS = [1, 2, 10, 11, 1000, 1001, 10 ** 6]
INDENTS = ["\n", "\n  ", "\n    ", "\n          "]


def _edge_ids(n: int) -> list[int]:
    """0, n - 1 and both sides of every power of ten below n."""
    tens = [10 ** k for k in range(1, len(str(n)) + 1) if 10 ** k < n]
    return sorted({0, n - 1, *tens, *(t - 1 for t in tens)})


@st.composite
def id_arrays(draw):
    """A bound n and a 1-D or 2-D (1 to 3 columns) int array of ids below
    it, of 0 to 3 rows or at the block edge, half of its entries from
    _edge_ids(n)."""
    n = draw(st.sampled_from(BOUNDS))
    rows = draw(st.sampled_from([0, 1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1]))
    columns = draw(st.sampled_from([0, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = rows * max(columns, 1)
    ids = np.where(rng.random(size) < 0.5, rng.choice(_edge_ids(n), size),
                   rng.integers(0, n, size))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint32, np.uint64]))
    return n, ids.astype(dtype).reshape((rows, columns) if columns else (rows,))


def test_digit_table_rows_are_the_decimal_text_of_the_ids():
    for n in [0, *BOUNDS]:
        table = digit_table(n)
        assert table.shape == (n, len(str(max(n - 1, 0)))) and table.dtype == np.uint8
        ids = _edge_ids(n) if n else []
        assert [row.tobytes().lstrip(b"\0").decode() for row in table[ids]] == list(map(str, ids))
    assert np.array_equal(digit_table(1001)[:, -1], np.arange(1001) % 10 + 48)


def test_digit_table_makes_no_int_array_of_its_ids():
    # The int64 ids 0..10^6-1 alone would take 8 MB; the table takes 6 MB.
    tracemalloc.start()
    try:
        digit_table(10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6


@settings(max_examples=150, deadline=None)
@given(id_arrays(), st.sampled_from(INDENTS), st.data())
def test_id_text_matches_the_format_oracle(case, inner, data):
    # The separators of edge and fiber lines and of JSON members and rows.
    n, ids = case
    rows = ids if ids.ndim == 2 else ids[:, None]
    lead = data.draw(st.sampled_from(["", "," + inner, "," + inner + "[" + inner + "  "]))
    mid = data.draw(st.sampled_from([" ", "," + inner + "  "]))
    tail = data.draw(st.sampled_from(["\n", "", inner + "]"]))
    seps = (lead,) + (mid,) * (rows.shape[1] - 1) + (tail,)
    table = digit_table(n)
    assert id_text(table, rows, seps) == pairs_text_by_format(rows, seps)
    if rows.shape[1] == 2:
        assert id_text(table, rows, ("", " ", "\n")) == pairs_text_by_format(rows)


@settings(max_examples=150, deadline=None)
@given(id_arrays(), st.integers(0, 3), st.data())
def test_int_blocks_match_the_json_encoder_at_every_bound(case, depth, data):
    n, whole = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(whole)), max_size=4)))
    blocks = IntBlocks(lambda: np.split(whole, cuts), n)
    doc, as_array = blocks, whole
    for _ in range(depth):  # one indent deeper per level
        doc, as_array = {"k": [doc, 1]}, {"k": [as_array, 1]}
    assert stable_text(doc) == json_stable_text(as_array)
