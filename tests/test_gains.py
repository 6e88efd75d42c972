import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecovers.covers import connection_set, standard_ids, verify_cover
from cyclecovers.gains import (
    GainGraph,
    all_cycle_sums_nonzero,
    cocycle_arcs,
    cocycle_rows,
    cover_from_gain,
    cycle_gain_sums,
    directed_cycles,
    extraspecial_row_cover,
    gain_from_cocycle,
)
from cyclecovers.graphs import _BLOCK, Graph, cycle_graph
from cyclecovers.groups import MINUS, PLUS, SIGNS
from cyclecovers.spectra import twisted_adjacency

from helpers import VertexCodec, cover, gain_graph, gains_along, is_regular, odd_cover
from oracles import (
    DictGainGraph,
    cocycle_cover,
    cover_from_gain_by_edges,
    twisted_adjacency_by_arcs,
)


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (3, 2)])
@pytest.mark.parametrize("sign", SIGNS)
def test_antisymmetry_everywhere(p, d, sign):
    gg = gain_graph(p, d, sign)
    assert gg.base.n == p ** (2 * d)
    assert is_regular(gg.base) == 4 * d
    for u, v, g in gg.arcs():
        assert gg.gain(v, u) == (-g) % p


def test_minus_gains_show_two_values_per_generator():
    gg = gain_graph(3, 1, MINUS)
    codec = VertexCodec((3, 3))
    values = [gains_along(gg, s, codec) for s in connection_set(3, 1)]
    assert values[0] == {0, 1}
    assert values[1] == {0, 2}


def test_minus_cycle_sums_nonzero():
    for p, d in [(3, 1), (3, 2)]:
        gg = gain_graph(p, d, MINUS)
        for length in (3, 4):
            ok, wit = all_cycle_sums_nonzero(gg, length)
            assert ok, (p, d, length, wit)


def test_plus_cycle_sums():
    for p, d in [(3, 1), (3, 2)]:
        gg = gain_graph(p, d, PLUS)
        ok4, _ = all_cycle_sums_nonzero(gg, 4)
        assert ok4
        # The exponent-p cover has p-cycles, so some triangle sums vanish.
        ok3, wit = all_cycle_sums_nonzero(gg, 3)
        assert not ok3 and wit is not None


def test_cycle_sums_match_both_orientations():
    gg = gain_graph(3, 1, MINUS)
    for cyc, total in cycle_gain_sums(gg, 4):
        rev = tuple(reversed(cyc))
        back = sum(gg.gain(rev[i], rev[(i + 1) % 4]) for i in range(4)) % 3
        assert back == (-total) % 3


def test_zero_gain_cover_is_disjoint_copies():
    base = cycle_graph(3)
    gg = GainGraph(base, 3, [0] * len(base.indices))
    cm = cover_from_gain(gg)
    assert verify_cover(cm) == 3
    expected = {(min(u * 3 + j, v * 3 + j), max(u * 3 + j, v * 3 + j))
                for u, v in base.edges() for j in range(3)}
    assert cm.total.edge_set() == expected


# Every (p, d) whose cover has at most 3125 vertices, and the 16807-vertex
# (7, 2). The Cayley cover is built through ExtraspecialGroup.mul, so it
# checks the cocycle on arrays that gain_from_cocycle evaluates against the
# group's own multiplication; the maps are compared whole, ids, base and
# fiber map included.
@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1),
                                 (7, 2)])
@pytest.mark.parametrize("sign", SIGNS)
def test_gain_cover_equals_cayley_cover(p, d, sign):
    gm = cocycle_cover(p, d, sign)
    assert gm == cover(p, d, sign)
    assert verify_cover(gm) == p


def test_extraspecial_row_cover_rejects_bad_parameters():
    with pytest.raises(ValueError, match="odd"):
        extraspecial_row_cover(2, 1, PLUS)
    with pytest.raises(ValueError, match="sign"):
        extraspecial_row_cover(3, 1, "other")
    with pytest.raises(ValueError, match="exceed"):
        extraspecial_row_cover(13, 3, PLUS)  # 13^7 vertices


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1), (7, 1), (3, 4)])
@pytest.mark.parametrize("sign", SIGNS)
def test_cocycle_rows_are_the_lift_rows_on_any_ids(p, d, sign):
    # Rows of shuffled, repeated and scattered ids, one id alone, and
    # consecutive blocks across the whole cover, against the whole lift.
    lift = cocycle_cover(p, d, sign).total
    table = lift.indices.reshape(lift.n, -1)
    rows = cocycle_rows(p, d, sign)
    rng = np.random.default_rng(p * 100 + d)
    for ids in (rng.integers(0, lift.n, 50), np.array([lift.n - 1]),
                np.arange(lift.n), np.arange(lift.n)[::-1]):
        assert np.array_equal(rows(ids), table[ids])


def test_cocycle_rows_check_each_block(monkeypatch):
    import cyclecovers.gains as gains

    first = connection_set(3, 1)[0]
    monkeypatch.setattr(gains, "connection_set", lambda p, d: (first, first))
    with pytest.raises(ValueError, match="repeated arcs"):
        extraspecial_row_cover(3, 1, PLUS).rows(np.arange(5))


@pytest.mark.parametrize("sign", SIGNS)
def test_blocked_lift_matches_the_edge_oracle_across_blocks(sign):
    # 6561 base vertices, more than one block of base rows; the restriction
    # to 5000 shuffled vertices is irregular.
    gg = gain_graph(3, 4, sign)
    sub = gg.restrict(np.random.default_rng(5).permutation(gg.base.n)[:5000])
    degrees = np.diff(sub.base.indptr)
    assert sub.base.n > _BLOCK and degrees.min() < degrees.max()
    for g in (gg, sub):
        cm = cover_from_gain(g)
        assert cm.total == cover_from_gain_by_edges(g)
        assert cm.base is g.base and np.array_equal(cm.fiber_map, np.arange(g.base.n).repeat(3))


def test_restricted_gain_cover_matches_induced_cover():
    p, d = 3, 2
    keep = [v for v, s in enumerate(standard_ids(p, d)) if s % p == 0]
    for sign in SIGNS:
        sub = gain_graph(p, d, sign).restrict(keep)
        cm = cover_from_gain(sub)
        assert cm.total.edge_set() == odd_cover(p, d, sign).total.edge_set()


def _random_gain_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    base = Graph(n, edges)
    gains = {(u, v): rng.randrange(p) for u, v in base.edges()}
    return GainGraph(base, p, DictGainGraph(base, p, gains).aligned())


def test_random_gain_covers_verify():
    import random

    rng = random.Random(31)
    for p in (3, 5):
        for _ in range(8):
            gg = _random_gain_graph(rng, rng.randrange(4, 9), p)
            if gg.base.m == 0:
                continue
            assert verify_cover(cover_from_gain(gg)) == p


def test_cover_4cycles_match_zero_gain_sums():
    # A 4-cycle upstairs projects to a simple 4-cycle downstairs with zero
    # gain sum, and conversely every such cycle lifts.
    import random

    from cyclecovers.graphs import has_4cycle

    rng = random.Random(41)
    for p in (3, 5):
        for _ in range(10):
            gg = _random_gain_graph(rng, rng.randrange(4, 9), p)
            cm = cover_from_gain(gg)
            ok, _ = all_cycle_sums_nonzero(gg, 4)
            assert has_4cycle(cm.total)[0] == (not ok)


def test_gain_graph_validation():
    # Arcs of the 3-cycle in row order: 0 -> 1, 0 -> 2, 1 -> 0, 1 -> 2, 2 -> 0, 2 -> 1.
    base = cycle_graph(3)
    assert GainGraph(base, 3, [1, 0, 2, 0, 0, 0]).gain(1, 0) == 2
    with pytest.raises(ValueError, match="one gain per neighbour"):
        GainGraph(base, 3, [1, 2, 0, 0, 0])  # a missing gain
    with pytest.raises(ValueError, match="one gain per neighbour"):
        GainGraph(base, 3, [1, 0, 0, 2, 0, 0, 0])  # a gain on a non-edge
    with pytest.raises(ValueError, match="one gain per neighbour"):
        GainGraph(base, 3, [[1, 0], [2, 0], [0, 0]])  # rows, not aligned with the indices
    with pytest.raises(ValueError, match="inconsistent"):
        GainGraph(base, 3, [1, 0, 1, 0, 0, 0])  # gain(1, 0) != -gain(0, 1)


def test_gain_refuses_non_integer_out_of_range_and_non_adjacent_vertices():
    # Vertex 0 of the (3, 1, plus) base has neighbours 3, 5, 6 and 7; the
    # head used to be found with tuple.index, which matched 3.0.
    gg = gain_from_cocycle(3, 1, PLUS)
    assert gg.base.neighbors(0) == (3, 5, 6, 7)
    assert gg.gain(np.int64(0), np.int64(3)) == gg.gain(0, 3)
    for u, v in ((0, 3.0), (0.0, 3), (0, "3")):
        with pytest.raises(TypeError):
            gg.gain(u, v)
    for u, v in ((0, 99), (0, -1), (9, 3)):
        with pytest.raises(ValueError, match="out of range"):
            gg.gain(u, v)
    with pytest.raises(ValueError, match=r"\(0,4\) is not an arc"):
        gg.gain(0, 4)


def test_gain_from_cocycle_validation():
    with pytest.raises(ValueError):
        gain_from_cocycle(2, 1, PLUS)
    with pytest.raises(ValueError):
        gain_from_cocycle(3, 1, "other")


def test_gain_from_cocycle_size_checked_before_any_work(monkeypatch):
    # (13, 9) died inside numpy; (13, 4) asked for an 8.2e8-row table.
    import cyclecovers.gains as gains

    def reached(*args):
        raise AssertionError("made the gain graph's rows")

    monkeypatch.setattr(gains, "cocycle_arcs", reached)
    monkeypatch.setattr(gains, "row_table", reached)
    for d in (4, 9):
        with pytest.raises(ValueError, match="exceed"):
            gain_from_cocycle(13, d, PLUS)


@pytest.mark.parametrize("count", [-1, 0, 5])
def test_cocycle_arcs_count_checked_before_any_array(count, monkeypatch):
    # At d = 2, count -1 gave the arcs of the first three vectors, 0 raised
    # IndexError inside numpy and 5 gave all four. Without numpy, any array
    # made before the check raises AttributeError.
    import cyclecovers.gains as gains

    monkeypatch.setattr(gains, "np", None)
    with pytest.raises(ValueError, match=f"count must lie in 1..4, got {count}"):
        cocycle_arcs(3, 2, MINUS, count)


def test_cocycle_arcs_reads_count_as_an_index():
    for count in (2.0, "2"):
        with pytest.raises(TypeError):
            cocycle_arcs(3, 2, PLUS, count)
    ids = np.arange(9)
    assert np.array_equal(cocycle_arcs(3, 2, PLUS, np.int64(3))(ids),
                          cocycle_arcs(3, 2, PLUS, 3)(ids))
    assert np.array_equal(cocycle_arcs(3, 2, PLUS, 4)(ids), cocycle_arcs(3, 2, PLUS)(ids))


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)])
@pytest.mark.parametrize("sign", SIGNS)
def test_cocycle_arcs_are_the_gain_graph_rows_on_any_ids(p, d, sign):
    # Rows of shuffled, repeated and scattered ids, one id alone and every
    # id in reverse, against the table of gain_from_cocycle; with the last
    # connection vector left out, the same rows without its two arcs.
    gg = gain_from_cocycle(p, d, sign)
    heads = gg.base.indices.reshape(gg.base.n, -1)
    keys = heads * p + gg.gains.reshape(heads.shape)
    weights = p ** np.arange(2 * d - 1, -1, -1)
    last = np.array(connection_set(p, d)[-1])
    rng = np.random.default_rng(p * 100 + d)
    for ids in (rng.integers(0, gg.base.n, 50), np.array([gg.base.n - 1]),
                np.arange(gg.base.n)[::-1]):
        assert np.array_equal(cocycle_arcs(p, d, sign)(ids), keys[ids])
        digits = ids[:, None] // weights % p
        ends = [(digits + last) % p @ weights, (digits - last) % p @ weights]
        kept = (heads[ids] != ends[0][:, None]) & (heads[ids] != ends[1][:, None])
        expected = keys[ids][kept].reshape(len(ids), -1)
        assert expected.shape[1] == 4 * d - 2
        assert np.array_equal(cocycle_arcs(p, d, sign, 2 * d - 1)(ids), expected)


def test_gain_from_cocycle_rejects_repeated_arcs(monkeypatch):
    import cyclecovers.gains as gains

    first = connection_set(3, 1)[0]
    monkeypatch.setattr(gains, "connection_set", lambda p, d: (first, first))
    with pytest.raises(ValueError, match="repeated arcs"):
        gain_from_cocycle(3, 1, PLUS)


# ---------------------------------------------------------------- cycles through one root

# Every (p, d) whose gain graph has at most 729 vertices.
SMALL_GAIN_GRAPHS = [(p, d) for p in (3, 5, 7, 11, 13) for d in (1, 2, 3) if p ** (2 * d) <= 729]


def _gain_sum(gg, walk):
    return sum(gg.gain(walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))) % gg.p


@pytest.mark.parametrize("p,d", SMALL_GAIN_GRAPHS)
@pytest.mark.parametrize("sign", SIGNS)
def test_cycles_through_vertex_0_decide_all_cycles(p, d, sign):
    gg = gain_graph(p, d, sign)
    for length in (3, 4):
        assert all_cycle_sums_nonzero(gg, length, root=0) == all_cycle_sums_nonzero(gg, length)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]), st.sampled_from(SIGNS), st.data())
def test_translation_keeps_cycle_gain_sums(pd, sign, data):
    # Translating by h changes each arc's gain by the coboundary of
    # x -> kappa(x, h), which sums to 0 around any closed walk (README,
    # "Gain cycle sums from one vertex").
    p, d = pd
    gg = gain_graph(p, d, sign)
    codec = VertexCodec((p,) * (2 * d))
    length = data.draw(st.sampled_from((3, 4) if p == 3 else (4, p)))
    root = data.draw(st.integers(0, gg.base.n - 1))
    cycle = data.draw(st.sampled_from(list(directed_cycles(gg.base, length, root))))
    h = data.draw(st.tuples(*[st.integers(0, p - 1)] * (2 * d)))
    shifted = [codec.encode(tuple((a + b) % p for a, b in zip(codec.decode(v), h)))
               for v in cycle]
    assert _gain_sum(gg, shifted) == _gain_sum(gg, cycle)


def test_one_root_misses_a_zero_sum_cycle_without_cocycle_gains():
    # Same base, every 3-cycle sum nonzero, then one triangle away from
    # vertex 0 is given sum 0 by changing one gain: the gains no longer come
    # from a cocycle, and the search from vertex 0 alone misses it.
    gg = gain_graph(3, 1, MINUS)
    assert all_cycle_sums_nonzero(gg, 3) == (True, None)
    far = next(c for c in directed_cycles(gg.base, 3) if 0 not in c)
    u, v = far[0], far[1]
    gains = {(a, b): g for a, b, g in gg.arcs() if {a, b} != {u, v}}
    gains[(u, v)] = (gg.gain(u, v) - _gain_sum(gg, far)) % 3
    broken = GainGraph(gg.base, 3, DictGainGraph(gg.base, 3, gains).aligned())
    assert all_cycle_sums_nonzero(broken, 3, root=0) == (True, None)
    assert all_cycle_sums_nonzero(broken, 3) == (False, far)


# ---------------------------------------------------------------- rows against the dict oracle

@st.composite
def dict_gain_graphs(draw):
    """A random base graph on 0 to 8 vertices, isolated vertices and the
    empty edge set included, p in {2, 3, 5, 7}, and random gains given to
    one direction of each edge."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    base = Graph(n, edges)
    p = draw(st.sampled_from((2, 3, 5, 7)))
    gains = {}
    for u, v in base.edges():
        arc = (u, v) if draw(st.booleans()) else (v, u)
        gains[arc] = draw(st.integers(-10, 10))
    return DictGainGraph(base, p, gains)


@settings(max_examples=150, deadline=None)
@given(dict_gain_graphs(), st.data())
def test_row_gain_graph_matches_the_dict_oracle(oracle, data):
    base, p = oracle.base, oracle.p
    gg = GainGraph(base, p, oracle.aligned())
    assert list(gg.arcs()) == list(oracle.arcs())
    for u, v in base.edges():
        assert (gg.gain(u, v), gg.gain(v, u)) == (oracle.gain(u, v), oracle.gain(v, u))
    assert cover_from_gain(gg).total == cover_from_gain_by_edges(oracle)
    for k in range(p):
        assert np.array_equal(twisted_adjacency(gg, k), twisted_adjacency_by_arcs(oracle, k))
    order = data.draw(st.permutations(range(base.n)))
    vertices = order[: data.draw(st.integers(0, base.n))]
    sub, sub_oracle = gg.restrict(vertices), oracle.restrict(vertices)
    assert sub.base == sub_oracle.base
    assert list(sub.arcs()) == list(sub_oracle.arcs())


def test_row_gain_graph_rejects_a_short_row_and_a_non_antisymmetric_pair():
    base = Graph(4, [(0, 1), (1, 2), (2, 3)])
    gains = DictGainGraph(base, 5, {(0, 1): 1, (1, 2): 2, (2, 3): 3}).aligned()
    assert GainGraph(base, 5, gains).gains.tolist() == [1, 4, 2, 3, 3, 2]
    with pytest.raises(ValueError, match="one gain per neighbour"):
        GainGraph(base, 5, gains[:4] + gains[5:])  # row 2 one gain short
    gains[5] = 3
    with pytest.raises(ValueError, match=r"inconsistent gain at arc \(2,3\)"):
        GainGraph(base, 5, gains)


def test_gain_graph_reduces_any_int_to_python_int_residues():
    base = Graph(3, [(0, 1), (1, 2)])
    big = 2 ** 70 + 3  # past int64
    gg = GainGraph(base, 5, [big, -big, np.int64(-6), True])
    assert gg.gains.dtype == np.int64 and gg.gains.tolist() == [big % 5, -big % 5, 4, 1]
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert [gg.gain(u, v) for u, v in arcs] == [big % 5, -big % 5, 4, 1]
    assert all(type(gg.gain(u, v)) is int for u, v in arcs)
    assert GainGraph(base, 5, [7, -7, np.int64(-6), 6]).gains.tolist() == [2, 3, 4, 1]
    # Bools, as signed_double_cover passes them, read as 0 and 1.
    assert GainGraph(base, 2, [True, True, False, False]).gains.tolist() == [1, 1, 0, 0]
    with pytest.raises(ValueError, match=r"inconsistent gain at arc \(0,1\)"):
        GainGraph(base, 5, [big, big, 0, 0])
    # A missing gain is reported before a pair that is not antisymmetric.
    with pytest.raises(ValueError, match="one gain per neighbour"):
        GainGraph(base, 5, [big, big, 0])
