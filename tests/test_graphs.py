import itertools
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecovers.covers import lifted_connection
from cyclecovers.gains import all_cycle_sums_nonzero, gain_from_cocycle
from cyclecovers.graphs import (
    Graph,
    cartesian_power,
    cartesian_product,
    cayley,
    cycle_graph,
    cycle_power,
    cycle_power_rows,
    edge_blocks,
    girth,
    has_4cycle,
    has_cycle_of_length,
    hypercube,
    hypercube_rows,
    rooted_cycles,
    write_edge_rows,
    write_pairs,
)
from cyclecovers.groups import SIGNS, ExtraspecialGroup

from helpers import VertexCodec, cayley_on_ids, cover, graph_from_edge_list_text, is_regular
from oracles import (
    TupleGraph,
    induced_subgraph,
    rooted_cycles_unpruned,
    brute_cycle_lengths,
    brute_girth,
    brute_has_4cycle,
    girth_by_parent_bfs,
    has_4cycle_by_pairs,
    cartesian_product_by_definition,
    cayley_by_definition,
    hypercube_by_definition,
    torus_by_definition,
)


def z2_tuples(d):
    return list(itertools.product(range(2), repeat=d))


def xor(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


# ---------------------------------------------------------------- corpus

def _corpus():
    graphs = {
        "triangle": cycle_graph(3),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "c9": cycle_graph(9),
        "path": Graph(6, [(i, i + 1) for i in range(5)]),
        "tree": Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
        "empty": Graph(5, []),
        "k4": Graph(4, list(itertools.combinations(range(4), 2))),
        "k5": Graph(5, list(itertools.combinations(range(5), 2))),
        "k33": Graph(6, [(i, j + 3) for i in range(3) for j in range(3)]),
        "q3": hypercube(3),
        "two_triangles": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        "rook": cartesian_power(cycle_graph(3), 2),
        "petersen": Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                               (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]),
    }
    rng = random.Random(11)
    for trial in range(6):
        n = rng.randrange(6, 13)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        graphs[f"random{trial}"] = Graph(n, edges)
    return graphs


CORPUS = _corpus()


# ---------------------------------------------------------------- Graph basics

def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


@pytest.mark.parametrize("edges", [
    [(0.5, 1.7), (1, 2)],  # numpy would truncate these to (0, 1)
    [("0", "1")],  # and parse these
    np.array([[0.0, 1.0], [1.0, 2.0]]),
    [(0, 1), (1, None)],
], ids=["floats", "strings", "float array", "None"])
def test_graph_refuses_endpoints_that_are_not_integers(edges):
    with pytest.raises(TypeError):
        Graph(3, edges)


def test_graph_takes_python_and_numpy_ints_and_bools():
    edges = [(np.int32(0), np.uint8(1)), (True, np.int64(2)), (np.bool_(False), 2)]
    assert Graph(3, edges) == cycle_graph(3)
    assert Graph(3, np.array([[0, 1], [1, 2]])).edge_set() == {(0, 1), (1, 2)}
    with pytest.raises(OverflowError):
        Graph(3, [(0, 2 ** 70)])


def test_graph_adjacency_is_symmetric_and_loopless():
    for g in CORPUS.values():
        for u in range(g.n):
            assert u not in g.neighbors(u)
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


def test_edges_ascending():
    g = CORPUS["rook"]
    es = list(g.edges())
    assert es == sorted(es)
    assert all(u < v for u, v in es)


def test_edge_list_text_format():
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    assert g.to_edge_list_text() == "4 4\n0 1\n0 2\n1 3\n2 3\n"
    assert graph_from_edge_list_text(g.to_edge_list_text()) == g


@st.composite
def edge_lists(draw, max_n=12):
    """n from 0 to max_n and a list of ordered vertex pairs without loops,
    repeats and both orientations allowed, so isolated vertices, the empty
    graph and n = 0 and 1 all come up."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []


@settings(max_examples=200, deadline=None)
@given(edge_lists(), edge_lists(), st.randoms(use_true_random=False))
def test_csr_graph_matches_the_tuple_row_graph(a, b, rng):
    for n, edges in (a, b):
        g, rows = Graph(n, edges), TupleGraph(n, edges)
        assert (g.n, g.m) == (rows.n, rows.m)
        assert [g.neighbors(v) for v in range(n)] == [rows.neighbors(v) for v in range(n)]
        assert [g.degree(v) for v in range(n)] == [rows.degree(v) for v in range(n)]
        assert all(g.has_edge(u, v) == rows.has_edge(u, v) for u in range(n) for v in range(n))
        assert list(g.edges()) == list(rows.edges())
        assert g.to_edge_list_text() == rows.to_edge_list_text()
        # The same graph from its edges reversed, shuffled and repeated.
        again = [(v, u) for u, v in edges] + edges
        rng.shuffle(again)
        assert Graph(n, again) == g and hash(Graph(n, again)) == hash(g)
    (g, h), (tg, th) = (Graph(*a), Graph(*b)), (TupleGraph(*a), TupleGraph(*b))
    assert (g == h) == (tg == th)


def test_edge_list_text_across_the_block_edge():
    # Path graphs whose edge and row counts sit at and around the 4096-line
    # and 4096-row blocks.
    for m in (0, 1, 4095, 4096, 4097, 8193):
        edges = [(i, i + 1) for i in range(m)]
        text = TupleGraph(m + 1, edges).to_edge_list_text()
        assert Graph(m + 1, edges).to_edge_list_text() == text
    # 6561 rows of degree 16: a row block ends inside a block of lines.
    g = cycle_power(3, 8)
    assert g.to_edge_list_text() == TupleGraph(g.n, g.edges()).to_edge_list_text()


def test_edge_list_writers_refuse_an_id_outside_the_graph():
    # A digit-table gather would wrap -1 to the table's last row.
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=f"id {bad} out of range for n=5"):
            write_pairs([np.array([[0, 1], [2, bad]])], 5, [].append)
    # edge_blocks checks the heads of each block before it keeps any, and
    # of a row of -1 and n it names n, the id above the range.
    rows = lambda ids: np.column_stack((np.full(len(ids), -1), np.full(len(ids), 5)))
    with pytest.raises(ValueError, match="id 5 out of range for n=5"):
        write_edge_rows(5, rows, [].append)


def test_edge_blocks_refuse_a_head_below_0():
    # Row 0 of this 5-cycle holds -1 for 4; a head below the row's id is
    # not an edge u < v of its block, so only the range check sees it.
    rows = lambda ids: np.sort(np.column_stack((ids - 1, (ids + 1) % 5)), axis=1)
    with pytest.raises(ValueError, match="id -1 out of range for n=5"):
        list(edge_blocks(5, rows))


def test_edge_list_writer_refuses_rows_that_are_not_symmetric():
    # Row u holds u + 1 and u + 2 mod 4: five edges u < v, not the 4 * 2 / 2
    # of the header.
    rows = lambda ids: np.column_stack(((ids + 1) % 4, (ids + 2) % 4))
    lines = []
    with pytest.raises(ValueError, match="rows give 5 edges, not the 4 of the header"):
        write_edge_rows(4, rows, lines.append)
    assert "".join(lines).splitlines()[0] == "4 4"


# ---------------------------------------------------------------- codec

def test_codec_roundtrip_and_order():
    codec = VertexCodec((3, 3, 3))
    assert codec.encode((1, 0, 2)) == 11
    assert codec.decode(11) == (1, 0, 2)
    for i in range(codec.size):
        assert codec.encode(codec.decode(i)) == i
    with pytest.raises(ValueError):
        codec.encode((3, 0, 0))
    with pytest.raises(ValueError):
        codec.decode(27)


# ---------------------------------------------------------------- cayley

def test_cayley_cube():
    for d in (1, 2, 3, 4):
        carrier = z2_tuples(d)
        units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        g = cayley_on_ids(carrier, xor, lambda x: x, units)
        assert g == hypercube(d)
        assert is_regular(g) == d


@pytest.mark.parametrize("d", range(0, 13))
def test_hypercube_matches_definition(d):
    assert hypercube(d) == hypercube_by_definition(d)


def test_cayley_triangle():
    g = cayley(3, lambda a, b: (a + b) % 3, lambda a: (-a) % 3, [1, 2])
    assert g == cycle_graph(3)


def test_cayley_rejects_identity_in_connection():
    with pytest.raises(ValueError):
        cayley(3, lambda a, b: (a + b) % 3, lambda a: (-a) % 3, [0, 1, 2])


def test_cayley_rejects_non_inverse_closed():
    with pytest.raises(ValueError):
        cayley(3, lambda a, b: (a + b) % 3, lambda a: (-a) % 3, [1])


@pytest.mark.parametrize("wrap", [lambda c: c + 3, lambda c: c - 3],
                         ids=["above n", "below 0"])
def test_cayley_refuses_a_product_outside_the_ids(wrap):
    # Z_3 with one product moved off 0..2: without the check a bad id
    # would reach the CSR arrays unseen.
    def mul(a, b):
        c = (a + b) % 3
        return wrap(c) if (a, b) == (1, 2) else c

    with pytest.raises(ValueError, match="out of range for n=3"):
        cayley(3, mul, lambda a: (-a) % 3, [1, 2])


@pytest.mark.parametrize("n", [0, 1, 5])
def test_cayley_with_no_connection_elements_is_edgeless(n):
    g = cayley(n, lambda a, b: (a + b) % n, lambda a: (-a) % n, [])
    assert g == Graph(n, []) and g.n == n and g.m == 0


def test_cayley_cycle_power_is_4d_regular():
    for p, d in [(3, 1), (5, 1), (3, 2)]:
        dim = 2 * d
        carrier = list(itertools.product(range(p), repeat=dim))
        conn = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            conn.append(e)
            conn.append(tuple((-x) % p for x in e))
        g = cayley_on_ids(carrier,
                          lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
                          lambda a: tuple((-x) % p for x in a),
                          conn)
        assert g.n == p ** dim
        assert is_regular(g) == 4 * d


def _counting(mul):
    calls = [0]

    def counted(g, h):
        calls[0] += 1
        return mul(g, h)

    return counted, calls


@pytest.mark.parametrize("sign", SIGNS)
def test_cayley_multiplies_once_per_vertex_and_connection_element(sign):
    group = ExtraspecialGroup(3, 1, sign)
    carrier = list(group.elements())
    conn = lifted_connection(group)
    mul, calls = _counting(group.mul)
    g = cayley(group.size, mul, group.inv, conn)
    assert calls[0] == len(carrier) * len(conn) + 1
    assert g == cayley_by_definition(carrier, group.mul, group.inv, conn)


def test_cayley_counts_a_repeated_connection_element_once():
    add, neg = (lambda a, b: (a + b) % 7), (lambda a: (-a) % 7)
    mul, calls = _counting(add)
    g = cayley(7, mul, neg, [1, 6, 1, 6, 6, 2, 5, 2])
    assert g == cayley_by_definition(list(range(7)), add, neg, [1, 6, 2, 5])
    assert calls[0] == 7 * 4 + 1
    group = ExtraspecialGroup(3, 1, "minus")
    carrier = list(group.elements())
    conn = lifted_connection(group)
    assert (cayley(group.size, group.mul, group.inv, conn + conn[::-1])
            == cayley(group.size, group.mul, group.inv, conn))


# ---------------------------------------------------------------- products

def test_product_k2_k2():
    k2 = Graph(2, [(0, 1)])
    g = cartesian_product(k2, k2)
    assert g.edge_set() == {(0, 1), (2, 3), (0, 2), (1, 3)}
    assert girth(g) == 4


def test_product_c3_c3():
    g = cartesian_power(cycle_graph(3), 2)
    assert g.n == 9 and g.m == 18
    assert is_regular(g) == 4


def test_product_matches_cayley_form():
    p = 3
    prod = cartesian_power(cycle_graph(p), 2)
    carrier = list(itertools.product(range(p), repeat=2))
    conn = [(1, 0), (2, 0), (0, 1), (0, 2)]
    cay = cayley_on_ids(carrier,
                        lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
                        lambda a: tuple((-x) % p for x in a),
                        conn)
    assert prod == cay


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 4), (4, 3), (5, 2), (5, 3), (7, 2)])
def test_cartesian_power_matches_the_definition(p, k):
    assert cartesian_power(cycle_graph(p), k) == torus_by_definition(p, k)


@pytest.mark.parametrize("p,k", [(3, 0), (3, 1), (3, 2), (3, 4), (4, 3), (5, 2), (5, 3),
                                 (7, 2), (7, 4), (13, 2)])
def test_cycle_power_is_the_cartesian_power(p, k):
    expected = cartesian_power(cycle_graph(p), k) if k else Graph(1, [])
    assert cycle_power(p, k) == expected
    if p ** k <= 343:
        assert cycle_power(p, k) == torus_by_definition(p, k)


def test_cycle_power_and_hypercube_read_exponents_as_indices():
    for build in (partial(cycle_power, 3), partial(cycle_power_rows, 3), hypercube,
                  hypercube_rows):
        with pytest.raises(ValueError, match=">= 0"):
            build(-1)
        for bad in (1.0, "2"):
            with pytest.raises(TypeError):
                build(bad)
    assert cycle_power(3, np.int64(2)) == cycle_power(3, 2)
    assert hypercube(np.int64(3)) == hypercube(3)


def test_cartesian_product_matches_the_definition_on_the_corpus():
    names = ["path", "tree", "empty", "k4", "petersen", "random0", "random3"]
    for a in names:
        for b in names:
            x, y = CORPUS[a], CORPUS[b]
            assert cartesian_product(x, y) == cartesian_product_by_definition(x, y), (a, b)


# ---------------------------------------------------------------- girth

def test_girth_examples():
    assert girth(cycle_graph(4)) == 4
    assert girth(hypercube(3)) == 4
    assert girth(CORPUS["tree"]) is None
    assert girth(CORPUS["petersen"]) == 5


def test_girth_cap_semantics():
    c5 = cycle_graph(5)
    assert girth(c5, cap=5) is None
    assert girth(c5, cap=6) == 5
    with pytest.raises(ValueError):
        girth(c5, cap=2)


def test_girth_against_brute_corpus():
    for name, g in CORPUS.items():
        if g.n > 12:
            continue
        expected = brute_girth(g)
        got = girth(g, cap=13)
        assert got == expected, name


@settings(max_examples=200, deadline=None)
@given(edge_lists(max_n=13), st.integers(3, 13))
def test_girth_matches_the_parent_tracking_bfs(graph, cap):
    n, edges = graph
    g = Graph(n, edges)
    for root in [None, *range(n)]:
        assert girth(g, cap, root) == girth_by_parent_bfs(g, cap, root), root


def test_girth_stops_at_an_empty_level():
    # A BFS that ran ceil(cap/2) levels would not return.
    for g in (CORPUS["tree"], CORPUS["path"], CORPUS["empty"]):
        assert girth(g, cap=10 ** 12) is None
        assert girth(g, cap=10 ** 12, root=0) is None
    assert girth(cycle_graph(9), cap=10 ** 12, root=0) == 9


# ---------------------------------------------------------------- 4-cycles

def test_has_4cycle_examples():
    found, wit = has_4cycle(cycle_graph(4))
    assert found
    a, b, c, d = wit
    assert len({a, b, c, d}) == 4
    g = cycle_graph(4)
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a)
    assert not has_4cycle(cycle_graph(5))[0]


def test_has_4cycle_against_brute_corpus():
    for name, g in CORPUS.items():
        assert has_4cycle(g)[0] == brute_has_4cycle(g), name


def _is_4cycle_from(g, wit, root):
    closed = list(wit) + [wit[0]]
    return (wit[0] == root and len(set(wit)) == 4
            and all(g.has_edge(closed[i], closed[i + 1]) for i in range(4)))


@settings(max_examples=200, deadline=None)
@given(edge_lists(max_n=9))
@example((0, []))
@example((6, [(0, 1), (1, 2), (2, 0), (3, 4)]))
@example((5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
def test_has_4cycle_matches_brute_force_and_the_pair_scan(graph):
    n, edges = graph
    g = Graph(n, edges)
    found, wit = has_4cycle(g)
    assert found == brute_has_4cycle(g) == has_4cycle_by_pairs(g)[0]
    rooted = [has_4cycle(g, root=r) for r in range(n)]
    for r, (found_r, wit_r) in enumerate(rooted):
        assert found_r == brute_has_4cycle(g, root=r), r
        assert _is_4cycle_from(g, wit_r, r) if found_r else wit_r is None, r
    # All roots: the witness of the least root on a 4-cycle.
    assert (found, wit) == next((hit for hit in rooted if hit[0]), (False, None))


def test_has_4cycle_through_a_neighbour_of_the_root():
    # Every vertex is within distance 1 of these roots, so every 4-cycle
    # through them has its opposite vertex x in the root's own row.
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    wheel = Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    for g, root, wit in ((CORPUS["k4"], 0, (0, 2, 1, 3)), (diamond, 1, (1, 0, 2, 3)),
                         (wheel, 0, (0, 2, 1, 5))):
        assert has_4cycle(g, root=root) == (True, wit)
        assert _is_4cycle_from(g, wit, root)


# ---------------------------------------------------------------- fixed-length cycles

def test_has_cycle_of_length_examples():
    for p in (3, 5, 7):
        assert has_cycle_of_length(cycle_graph(p), p)[0]
    with pytest.raises(ValueError):
        has_cycle_of_length(cycle_graph(5), 2)
    with pytest.raises(ValueError):
        has_cycle_of_length(cycle_graph(5), 14)


def test_cycle_lengths_against_brute_corpus():
    for name, g in CORPUS.items():
        if g.n > 12:
            continue
        expected = brute_cycle_lengths(g)
        for length in range(3, min(13, g.n) + 1):
            found, wit = has_cycle_of_length(g, length)
            assert found == (length in expected), (name, length)
            if found:
                assert len(set(wit)) == length
                closed = list(wit) + [wit[0]]
                assert all(g.has_edge(closed[i], closed[i + 1]) for i in range(length))


# ---------------------------------------------------------------- rooted scans

@st.composite
def cyclic_cayley(draw):
    """Z_n, n <= 12, with a random inverse-closed connection set."""
    n = draw(st.integers(2, 12))
    gens = draw(st.sets(st.integers(1, n - 1), max_size=4))
    conn = sorted(gens | {(-s) % n for s in gens})
    return list(range(n)), lambda a, b: (a + b) % n, lambda a: (-a) % n, conn


@st.composite
def extraspecial_cayley(draw):
    """An extraspecial group of order 27, either sign, with a random
    inverse-closed connection set."""
    group = ExtraspecialGroup(3, 1, draw(st.sampled_from(SIGNS)))
    carrier = list(group.elements())
    gens = draw(st.lists(st.sampled_from(carrier[1:]), max_size=4, unique=True))
    conn = list(dict.fromkeys(gens + [group.inv(g) for g in gens]))
    return carrier, group.mul, group.inv, conn


@settings(max_examples=60, deadline=None)
@given(st.one_of(cyclic_cayley(), extraspecial_cayley()))
def test_cayley_matches_the_definition(case):
    carrier, mul, inv, conn = case
    assert cayley(len(carrier), mul, inv, conn) == cayley_by_definition(carrier, mul, inv, conn)


@settings(max_examples=60, deadline=None)
@given(st.one_of(cyclic_cayley(), extraspecial_cayley()), st.integers(3, 13))
def test_rooted_scans_match_all_roots_on_cayley_graphs(case, cap):
    carrier, mul, inv, conn = case
    g = cayley(len(carrier), mul, inv, conn)
    found4, wit4 = has_4cycle(g, root=0)
    assert found4 == has_4cycle(g)[0] == has_4cycle_by_pairs(g)[0]
    assert _is_4cycle_from(g, wit4, 0) if found4 else wit4 is None
    for length in range(3, 9):
        found, wit = has_cycle_of_length(g, length, root=0)
        assert found == has_cycle_of_length(g, length)[0], length
        if length == 4:
            assert found == found4
        if found:
            assert wit[0] == 0 and len(set(wit)) == length
            closed = list(wit) + [wit[0]]
            assert all(g.has_edge(closed[i], closed[i + 1]) for i in range(length))
    assert girth(g, cap, root=0) == girth(g, cap)
    assert girth(g, root=0) == girth(g)


def _yields(g, length, root):
    return list(rooted_cycles(g, length, root)), list(rooted_cycles_unpruned(g, length, root))


@settings(max_examples=150, deadline=None)
@given(edge_lists(max_n=10), st.integers(3, 8), st.data())
def test_distance_cut_keeps_every_cycle_in_order(graph, length, data):
    n, edges = graph
    g = Graph(n, edges)
    root = data.draw(st.one_of(st.none(), st.integers(0, n - 1))) if n else None
    pruned, unpruned = _yields(g, length, root)
    assert pruned == unpruned


# Every extraspecial cover of at most 3125 vertices, with the rows of the
# oracle's DFS in tuples so that it stays fast.
SMALL_COVERS = [(p, d) for p, d in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1))]


@pytest.mark.parametrize("p,d", SMALL_COVERS)
@pytest.mark.parametrize("sign", SIGNS)
def test_distance_cut_keeps_every_cycle_of_the_covers(p, d, sign):
    g = cover(p, d, sign).total
    rows = TupleGraph(g.n, g.edges())
    for length in range(3, p + 1):
        # The oracle walks up to this many paths from each root.
        paths = 4 * d * (4 * d - 1) ** (length - 2)
        roots = [0, g.n - 1] if paths <= 2 * 10 ** 4 else [0]
        roots += [None] if g.n * paths <= 3 * 10 ** 5 else []
        for root in roots:
            assert list(rooted_cycles(g, length, root)) == list(
                rooted_cycles_unpruned(rows, length, root)), (length, root)


def test_rooted_scans_search_through_the_root_only():
    # A triangle with a pendant path: vertex 3 lies on no cycle.
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert has_cycle_of_length(g, 3, root=0) == (True, (0, 2, 1))
    assert has_cycle_of_length(g, 3, root=3) == (False, None)
    assert girth(g, root=1) == 3
    # Off every cycle, one root's BFS sees a closed walk, not the girth; the
    # graph is not vertex-transitive.
    assert girth(g, root=4) == 7
    assert has_4cycle(g, root=0) == (False, None)
    with pytest.raises(ValueError):
        has_cycle_of_length(g, 2, root=0)
    with pytest.raises(ValueError):
        girth(g, cap=2, root=0)


def test_rooted_scans_refuse_a_root_outside_the_graph():
    # Negative roots used to index from the end and give false
    # certificates: no 4-cycle in C_4, no zero-sum triangle in a gain graph
    # that has one. The accessors read the same rows: degree(-1) was -8 and
    # has_edge(-1, 0) False on C_4, whose edges include (3, 0).
    g = cycle_graph(4)
    gg = gain_from_cocycle(3, 1, "plus")
    assert all_cycle_sums_nonzero(gg, 3)[0] is False
    searches = (lambda r: has_4cycle(g, root=r), lambda r: girth(g, root=r),
                lambda r: has_cycle_of_length(g, 4, root=r),
                lambda r: list(rooted_cycles(g, 3, r)),
                g.neighbors, g.degree, lambda r: g.has_edge(r, 0), lambda r: g.has_edge(0, r),
                lambda r: g.induced([r, 0]))
    gain_searches = (lambda r: all_cycle_sums_nonzero(gg, 3, root=r),
                     lambda r: gg.restrict([r, 0]), lambda r: gg.restrict([r]))
    for root in (-1, -4, 4, 5):
        for search in searches:
            with pytest.raises(ValueError, match="out of range"):
                search(root)
    for root in (-1, -9, 9):
        for search in gain_searches:
            with pytest.raises(ValueError, match="out of range"):
                search(root)
    # A float root failed inside numpy with IndexError, and induced([0.5, 1])
    # truncated 0.5 to 0.
    for root in (0.5, 1.0, "1"):
        for search in (*searches, *gain_searches, lambda r: gg.gain(r, 1)):
            with pytest.raises(TypeError):
                search(root)


# ---------------------------------------------------------------- induced

def test_induced_subgraph():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.edge_set() == {(0, 1), (1, 2)}
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])
