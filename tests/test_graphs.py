import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecovers.graphs import (
    Graph,
    VertexCodec,
    cartesian_power,
    cartesian_product,
    cayley,
    cycle_graph,
    girth,
    has_4cycle,
    has_cycle_of_length,
    hypercube,
    induced_subgraph,
)
from cyclecovers.groups import SIGNS, ExtraspecialGroup

from oracles import brute_cycle_lengths, brute_girth, brute_has_4cycle


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
    assert Graph.from_edge_list_text(g.to_edge_list_text()) == g


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
        g = cayley(carrier, xor, lambda x: x, units)
        assert g == hypercube(d)
        assert g.is_regular() == d


def test_cayley_triangle():
    g = cayley([0, 1, 2], lambda a, b: (a + b) % 3, lambda a: (-a) % 3, [1, 2])
    assert g == cycle_graph(3)


def test_cayley_rejects_identity_in_connection():
    with pytest.raises(ValueError):
        cayley([0, 1, 2], lambda a, b: (a + b) % 3, lambda a: (-a) % 3, [0, 1, 2])


def test_cayley_rejects_non_inverse_closed():
    with pytest.raises(ValueError):
        cayley([0, 1, 2], lambda a, b: (a + b) % 3, lambda a: (-a) % 3, [1])


def test_cayley_cycle_power_is_4d_regular():
    for p, d in [(3, 1), (5, 1), (3, 2)]:
        dim = 2 * d
        carrier = list(itertools.product(range(p), repeat=dim))
        conn = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            conn.append(e)
            conn.append(tuple((-x) % p for x in e))
        g = cayley(carrier,
                   lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
                   lambda a: tuple((-x) % p for x in a),
                   conn)
        assert g.n == p ** dim
        assert g.is_regular() == 4 * d


# ---------------------------------------------------------------- products

def test_product_k2_k2():
    k2 = Graph(2, [(0, 1)])
    g = cartesian_product(k2, k2)
    assert g.edge_set() == {(0, 1), (2, 3), (0, 2), (1, 3)}
    assert girth(g) == 4


def test_product_c3_c3():
    g = cartesian_power(cycle_graph(3), 2)
    assert g.n == 9 and g.m == 18
    assert g.is_regular() == 4


def test_product_matches_cayley_form():
    p = 3
    prod = cartesian_power(cycle_graph(p), 2)
    carrier = list(itertools.product(range(p), repeat=2))
    conn = [(1, 0), (2, 0), (0, 1), (0, 2)]
    cay = cayley(carrier,
                 lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
                 lambda a: tuple((-x) % p for x in a),
                 conn)
    assert prod == cay


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
@given(st.one_of(cyclic_cayley(), extraspecial_cayley()), st.integers(3, 13))
def test_rooted_scans_match_all_roots_on_cayley_graphs(case, cap):
    carrier, mul, inv, conn = case
    g = cayley(carrier, mul, inv, conn)
    found4, wit4 = has_4cycle(g, root=0)
    assert found4 == has_4cycle(g)[0]
    for length in range(3, 9):
        found, wit = has_cycle_of_length(g, length, root=0)
        assert found == has_cycle_of_length(g, length)[0], length
        if length == 4:
            assert (found, wit) == (found4, wit4)
        if found:
            assert wit[0] == 0 and len(set(wit)) == length
            closed = list(wit) + [wit[0]]
            assert all(g.has_edge(closed[i], closed[i + 1]) for i in range(length))
    assert girth(g, cap, root=0) == girth(g, cap)
    assert girth(g, root=0) == girth(g)


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


# ---------------------------------------------------------------- induced

def test_induced_subgraph():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.edge_set() == {(0, 1), (1, 2)}
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])
