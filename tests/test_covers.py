import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclecovers.covers as covers
from cyclecovers.covers import (
    CoveringMap,
    CoverVerificationError,
    GainGraph,
    SignedMatrix,
    build_cover,
    cohen_tits_signing,
    connection_set,
    cover_from_gain,
    heisenberg_cover,
    heisenberg_row_cover,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    signed_double_cover,
    standard_ids,
    verify_cover,
)
from cyclecovers.gains import cocycle_rows
from cyclecovers.graphs import (
    Graph,
    cycle_graph,
    girth,
    has_4cycle,
    has_cycle_of_length,
    hypercube,
)
from cyclecovers.groups import MINUS, PLUS, SIGNS, ExtraspecialGroup, HeisenbergGroup
from cyclecovers.spectra import adjacency_matrix, hermitian_eigenvalues

from helpers import (VertexCodec, cayley_on_ids, cover, cube_cover, heisenberg_generators,
                     is_regular, odd_cover)
from oracles import (
    DictGainGraph,
    brute_isomorphic,
    cayley_by_definition,
    has_4cycle_by_pairs,
    heisenberg_inv_by_form,
    heisenberg_mul_by_form,
    hypercube_by_definition,
    signed_double_cover_by_edges,
    standard_ids_by_product,
    verify_cover_by_matched_pairs,
)


# ---------------------------------------------------------------- connection set

def test_connection_set_d2_values():
    assert connection_set(3, 2) == (
        (1, 0, 0, 0), (2, 0, 1, 0), (1, 1, 1, 0), (1, 2, 1, 1))


def test_connection_set_d1():
    assert connection_set(5, 1) == ((1, 0), (2, 1))


def test_connection_set_rejects_even_prime():
    with pytest.raises(ValueError):
        connection_set(2, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_connection_set_is_basis(p, d):
    assert modular_rank(connection_set(p, d), p) == 2 * d


def _combination(vectors, x, p):
    """sum_j x_j vectors[j] mod p."""
    return tuple(sum(c * v[i] for c, v in zip(x, vectors)) % p for i in range(len(x)))


def test_basis_change_roundtrip():
    for p, d in [(3, 2), (5, 1), (7, 3)]:
        std = standard_ids(p, d)
        assert sorted(std) == list(range(p ** (2 * d)))
        codec = VertexCodec((p,) * (2 * d))
        vectors = connection_set(p, d)
        for x in itertools.islice(itertools.product(range(p), repeat=2 * d), 50):
            assert std[codec.encode(_combination(vectors, x, p))] == codec.encode(x)


def test_rank_and_inverse_mod_p(monkeypatch):
    # Determinant -3: singular mod 3, invertible mod 5.
    a = [[1, 2], [2, 1]]
    assert modular_rank(a, 3) == 1
    assert modular_rank(a, 5) == 2
    monkeypatch.setattr(covers, "connection_set", lambda p, d: ((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="not a basis mod 3"):
        standard_ids(3, 1)
    # The table is the inverse [[3, 4], [4, 3]] mod 5: e_1 -> (3, 4), e_2 -> (4, 3).
    std = standard_ids(5, 1)
    assert std[1 * 5 + 0] == 3 * 5 + 4
    assert std[0 * 5 + 1] == 4 * 5 + 3


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (7, 2), (13, 2), (3, 5)])
def test_standard_ids_match_the_product_matrix(p, d):
    assert np.array_equal(standard_ids(p, d), standard_ids_by_product(p, d))


def test_basis_change_sends_units_to_connection_vectors():
    std = standard_ids(3, 2)
    codec = VertexCodec((3,) * 4)
    for i, v in enumerate(connection_set(3, 2)):
        unit = tuple(1 if j == i else 0 for j in range(4))
        assert std[codec.encode(v)] == codec.encode(unit)


# ---------------------------------------------------------------- lifted connection

# Every (p, d) whose cover has at most 3125 vertices.
@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7, 11, 13) for d in (1, 2, 3)
                                 if p ** (2 * d + 1) <= 3125])
@pytest.mark.parametrize("sign", SIGNS)
def test_cayley_cover_on_ids_equals_the_cocycle_rows(p, d, sign):
    # build_cover multiplies element ids; cocycle_rows lifts the cocycle on
    # arrays of the same ids, with no group.
    n = p ** (2 * d + 1)
    assert cover(p, d, sign).total == Graph._from_id_arithmetic(n, cocycle_rows(p, d, sign))


def test_lifted_connection_inverses_31():
    plus = ExtraspecialGroup(3, 1, PLUS)
    minus = ExtraspecialGroup(3, 1, MINUS)
    assert plus.inv(plus.embed((1, 0))) == plus.element((2,), (0,), 0)
    assert minus.inv(minus.embed((1, 0))) == minus.element((2,), (0,), 2)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("sign", SIGNS)
def test_lifted_connection_size(p, d, sign):
    conn = lifted_connection(ExtraspecialGroup(p, d, sign))
    assert len(set(conn)) == 4 * d


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("sign", SIGNS)
def test_pairwise_noncommuting(p, d, sign):
    group = ExtraspecialGroup(p, d, sign)
    embedded = lifted_connection(group)[: 2 * d]
    report = pairwise_noncommuting_check(group, embedded)
    assert report.ok and report.all_central_units
    assert report.witness is None
    # Later-vs-earlier rule in the interleaved order: [x, y] has central
    # coordinate +1 exactly when x follows y.
    for i, j, z in report.table:
        assert z == (1 if i > j else p - 1)


def test_pairwise_noncommuting_case_values():
    # Spot values at d=2, in the orientations that realize +1 and -1.
    for sign in SIGNS:
        group = ExtraspecialGroup(3, 2, sign)
        embedded = lifted_connection(group)[:4]  # a1, b1, a2, b2
        a1, b1, a2, b2 = embedded
        assert group.commutator(a2, a1) == group.element((0, 0), (0, 0), 1)
        assert group.commutator(b1, b2) == group.element((0, 0), (0, 0), 2)
        assert group.commutator(a2, b1) == group.element((0, 0), (0, 0), 1)


def test_pairwise_noncommuting_detects_commuting():
    group = ExtraspecialGroup(3, 1, PLUS)
    g = group.element((1,), (0,), 0)
    report = pairwise_noncommuting_check(group, [g, group.mul(g, g)])
    assert not report.ok
    assert report.witness is not None


# ---------------------------------------------------------------- covers

def test_build_cover_31():
    for sign in SIGNS:
        cm = cover(3, 1, sign)
        assert cm.total.n == 27 and is_regular(cm.total) == 4
        assert cm.base.n == 9 and is_regular(cm.base) == 4
        assert verify_cover(cm) == 3
        assert not has_4cycle(cm.total)[0]


def test_build_cover_51():
    cm = cover(5, 1, MINUS)
    assert cm.total.n == 125 and is_regular(cm.total) == 4
    assert verify_cover(cm) == 5
    assert not has_4cycle(cm.total)[0]


def test_build_cover_32():
    cm = cover(3, 2, MINUS)
    assert cm.total.n == 243 and is_regular(cm.total) == 8
    assert verify_cover(cm) == 3
    assert not has_4cycle(cm.total)[0]


def test_build_cover_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_cover(2, 1, PLUS)
    with pytest.raises(ValueError):
        build_cover(3, 1, "other")
    with pytest.raises(ValueError):
        build_cover(13, 3, PLUS)  # 13^7 vertices


def test_base_is_cartesian_power_of_cycles():
    from cyclecovers.graphs import cartesian_power

    cm = cover(3, 1, PLUS)
    assert cm.base == cartesian_power(cycle_graph(3), 2)


def test_p_cycles_distinguish_signs():
    for p in (3, 5):
        assert has_cycle_of_length(cover(p, 1, PLUS).total, p)[0]
        assert not has_cycle_of_length(cover(p, 1, MINUS).total, p)[0]


def test_plus_cover_p_cycles_are_generator_orbits():
    for p in (3, 5):
        cm = cover(p, 1, PLUS)
        found, wit = has_cycle_of_length(cm.total, p)
        assert found
        group = ExtraspecialGroup(p, 1, PLUS)
        conn = set(lifted_connection(group))
        carrier = list(group.elements())
        v0, v1 = carrier[wit[0]], carrier[wit[1]]
        step = group.mul(v1, group.inv(v0))
        assert step in conn
        for i in range(p):
            expect = group.mul(step, carrier[wit[i]])
            assert carrier[wit[(i + 1) % p]] == expect
        # The image downstairs is a p-cycle along one base direction.
        images = [cm.fiber_map[v] for v in wit]
        assert len(set(images)) == p
        closed = images + [images[0]]
        assert all(cm.base.has_edge(closed[i], closed[i + 1]) for i in range(p))


def test_cover_girths():
    assert girth(cover(3, 1, PLUS).total) == 3
    assert girth(cover(3, 1, MINUS).total) == 5
    assert girth(cover(5, 1, PLUS).total) == 5
    assert girth(cover(5, 1, MINUS).total) == 7


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (7, 1), (3, 2)])
@pytest.mark.parametrize("sign", SIGNS)
def test_rooted_scans_match_all_roots_on_covers(p, d, sign):
    total = cover(p, d, sign).total
    assert has_4cycle(total, root=0) == has_4cycle(total)
    assert has_4cycle(total)[0] == has_4cycle_by_pairs(total)[0]
    # Same witness on plus covers, (False, None) on both paths for minus.
    assert has_cycle_of_length(total, p, root=0) == has_cycle_of_length(total, p)
    assert girth(total, 13, root=0) == girth(total, 13)


@pytest.mark.parametrize("d", range(1, 9))
def test_rooted_scans_match_all_roots_on_heisenberg_covers(d):
    total = cube_cover(d).total
    assert has_4cycle(total, root=0) == has_4cycle(total)
    assert has_4cycle(total)[0] == has_4cycle_by_pairs(total)[0]
    g = girth(total, 13)
    assert girth(total, 13, root=0) == g
    if g is not None:
        assert has_cycle_of_length(total, g, root=0) == has_cycle_of_length(total, g)


# ---------------------------------------------------------------- verify_cover negatives

def test_verify_cover_identity_map():
    g = cycle_graph(5)
    assert verify_cover(CoveringMap(g, g, tuple(range(5)))) == 1


@pytest.mark.parametrize("fiber_map", [
    [0.2, 1.9, 2.5, 0.7, 1.1, 2.0],  # numpy would truncate these to a 2-fold map
    np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
    ["0", "1", "2", "0", "1", "2"],
    "012012",
], ids=["floats", "float array", "strings", "str"])
def test_verify_cover_refuses_a_fiber_map_that_is_not_integer(fiber_map):
    cm = CoveringMap(cycle_graph(6), cycle_graph(3), fiber_map)
    with pytest.raises(TypeError):
        verify_cover(cm)
    with pytest.raises(TypeError):
        cm.write_fiber_map(lambda text: None)


def test_verify_cover_takes_python_and_numpy_ints():
    for gamma in ([0, 1, 2, 0, 1, 2], [np.int64(0), 1, np.uint8(2), 0, True, 2],
                  np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)):
        assert verify_cover(CoveringMap(cycle_graph(6), cycle_graph(3), gamma)) == 2
    with pytest.raises(OverflowError):
        verify_cover(CoveringMap(cycle_graph(6), cycle_graph(3), [0, 1, 2, 0, 1, 2 ** 70]))


@pytest.mark.parametrize("gains", [
    [1.5, 1.2, -1.5, 1.9, -1.2, -1.9],  # numpy would store these as [1 1 2 1 2 2]
    np.array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0]),
    ["1", "2", "2", "1", "1", "2"],
    [1, 2, 2, 1, 1, 2.0],
], ids=["floats", "float array", "strings", "one float"])
def test_gain_graph_refuses_gains_that_are_not_integers(gains):
    with pytest.raises(TypeError):
        GainGraph(cycle_graph(3), 3, gains)


def _fresh_cover():
    return cover(3, 1, MINUS)


def test_verify_cover_detects_fiber_edge():
    cm = _fresh_cover()
    # Join two vertices of one fiber (same base image).
    u = 0
    v = next(w for w in range(cm.total.n) if w != u and cm.fiber_map[w] == cm.fiber_map[u])
    broken = Graph(cm.total.n, list(cm.total.edges()) + [(u, v)])
    with pytest.raises(CoverVerificationError) as err:
        verify_cover(CoveringMap(broken, cm.base, cm.fiber_map))
    assert err.value.axiom == "fiber_independence"


def test_verify_cover_detects_broken_matching():
    cm = _fresh_cover()
    edges = list(cm.total.edges())
    broken = Graph(cm.total.n, edges[1:])
    with pytest.raises(CoverVerificationError) as err:
        verify_cover(CoveringMap(broken, cm.base, cm.fiber_map))
    assert err.value.axiom == "perfect_matching"


def test_verify_cover_detects_non_homomorphism():
    cm = _fresh_cover()
    gamma = list(cm.fiber_map)
    u, v = next(iter(cm.total.edges()))
    # Send one endpoint to a base vertex far from its mate.
    far = next(b for b in range(cm.base.n)
               if b != gamma[v] and not cm.base.has_edge(b, gamma[v]))
    gamma[u] = far
    with pytest.raises(CoverVerificationError) as err:
        verify_cover(CoveringMap(cm.total, cm.base, tuple(gamma)))
    assert err.value.axiom in ("homomorphism", "perfect_matching", "equal_fibers")


def test_verify_cover_detects_unequal_fibers():
    g = cycle_graph(3)
    total = Graph(4, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CoverVerificationError) as err:
        verify_cover(CoveringMap(total, g, (0, 1, 2, 0)))
    assert err.value.axiom in ("equal_fibers", "fiber_independence", "perfect_matching")


def test_verify_cover_refuses_the_empty_map():
    empty = Graph(0, [])
    with pytest.raises(CoverVerificationError) as err:
        verify_cover(CoveringMap(empty, empty, ()))
    assert err.value.axiom == "equal_fibers"


def _signed_cube_cover(d):
    return signed_double_cover(cohen_tits_signing(d))


# Every extraspecial cover of at most 3125 vertices, the Heisenberg covers of
# the d-cubes for d <= 8 and the signed double covers of the Cohen-Tits
# signings for d <= 7.
MUTANT_SOURCES = (
    [functools.partial(cover, p, d, sign)
     for p, d in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1))
     for sign in SIGNS]
    + [functools.partial(cube_cover, d) for d in range(1, 9)]
    + [functools.partial(_signed_cube_cover, d) for d in range(1, 8)])


def _verdict(check, cm):
    try:
        return check(cm)
    except CoverVerificationError as err:
        return err.axiom, err.witness


MUTATIONS = ("drop_edge", "add_edge", "rewire", "relabel", "swap")


def _mutant(cm, mutation, data):
    n, edges, gamma = cm.total.n, list(cm.total.edges()), cm.fiber_map.tolist()
    total = cm.total
    if mutation in ("drop_edge", "rewire") and edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        kept = edges[:i] + edges[i + 1:]
        if mutation == "rewire":
            # Move the edge's second end, so its first keeps its degree.
            u = edges[i][0]
            kept.append((u, data.draw(st.sampled_from([w for w in range(n) if w != u]))))
        total = Graph(n, kept)
    elif mutation == "add_edge" and n > 1:
        u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        total = Graph(n, edges + [(u, v)])
    elif mutation == "relabel":
        # One past either end of the base's ids tests the map's range.
        gamma[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, cm.base.n))
    elif mutation == "swap" and n > 1:
        u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        gamma[u], gamma[v] = gamma[v], gamma[u]
    return CoveringMap(total, cm.base, tuple(gamma))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MUTANT_SOURCES), st.sampled_from(MUTATIONS), st.data())
def test_verify_cover_matches_the_oracle_on_mutants(source, mutation, data):
    mutant = _mutant(source(), mutation, data)
    assert _verdict(verify_cover, mutant) == _verdict(verify_cover_by_matched_pairs, mutant)


@st.composite
def random_gain_covers(draw):
    """The lift of random gains mod 2, 3 or 5 on a random base graph of 1 to
    8 vertices, isolated ones included, so rows differ in degree."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    p = draw(st.sampled_from((2, 3, 5)))
    gains = {(u, v): draw(st.integers(0, p - 1)) for u, v in base.edges()}
    return cover_from_gain(GainGraph(base, p, DictGainGraph(base, p, gains).aligned()))


@settings(max_examples=300, deadline=None)
@given(random_gain_covers(), st.sampled_from(MUTATIONS), st.data())
def test_verify_cover_matches_the_oracle_on_mutants_of_irregular_covers(cm, mutation, data):
    assert _verdict(verify_cover, cm) == _verdict(verify_cover_by_matched_pairs, cm)
    mutant = _mutant(cm, mutation, data)
    assert _verdict(verify_cover, mutant) == _verdict(verify_cover_by_matched_pairs, mutant)


# ---------------------------------------------------------------- cube covers

def test_heisenberg_cover_small():
    cm = cube_cover(3)
    assert cm.total.n == 16 and is_regular(cm.total) == 3
    assert girth(cm.total) == 6
    assert verify_cover(cm) == 2
    assert cm.base == hypercube(3)


@pytest.mark.parametrize("d", range(1, 13))
def test_heisenberg_cover_is_the_cayley_graph(d):
    # The rows of the group's products on arrays against cayley's rows s g
    # from scalar products, the build they replaced, at every d, and against
    # the pairwise definition on the upper form of the coordinates where its
    # 2^(2d+1) products stay cheap.
    group = HeisenbergGroup(d)
    carrier = list(group.elements())
    generators = heisenberg_generators(group)
    cm = heisenberg_cover(d)
    assert cm.total == cayley_on_ids(carrier, group.mul, group.inv, generators)
    if d <= 8:
        assert cm.total == cayley_by_definition(
            carrier, functools.partial(heisenberg_mul_by_form, group),
            functools.partial(heisenberg_inv_by_form, group), generators)
    assert cm.base == hypercube_by_definition(d)
    assert cm.fiber_map.tolist() == [u // 2 for u in range(cm.total.n)]


def test_heisenberg_cover_rejects_bad_d():
    with pytest.raises(ValueError):
        heisenberg_cover(0)
    with pytest.raises(ValueError):
        heisenberg_cover(19)
    with pytest.raises(ValueError):
        cohen_tits_signing(0)
    # d is read through operator.index first; a float d used to fail deep
    # in numpy or range, or in power_exceeds.
    for build in (heisenberg_cover, heisenberg_row_cover, cohen_tits_signing):
        for d in (2.0, 1.5, "2", 10.0 ** 9):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                build(d)
    assert heisenberg_row_cover(np.int64(2)).n == 8
    assert cohen_tits_signing(np.int64(2)).n == 4


@pytest.mark.parametrize("d", range(1, 7))
def test_heisenberg_cover_no_4cycles(d):
    cm = cube_cover(d)
    assert verify_cover(cm) == 2
    assert not has_4cycle(cm.total)[0]


def test_cohen_tits_base_case():
    assert cohen_tits_signing(1).entries.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("d", range(1, 7))
def test_cohen_tits_square_and_support(d):
    sm = cohen_tits_signing(d)
    n = sm.n
    assert np.array_equal(sm.entries.astype(int) @ sm.entries.astype(int),
                          d * np.eye(n, dtype=int))
    assert sm.support_graph() == hypercube(d)


@pytest.mark.parametrize("d", range(2, 7))
def test_cohen_tits_odd_negative_edges_on_4cycles(d):
    sm = cohen_tits_signing(d)
    q = hypercube(d)
    m = sm.entries.astype(int)
    # All 4-cycles of the cube: flip two distinct coordinates.
    codec = VertexCodec((2,) * d)
    for x in range(q.n):
        dx = codec.decode(x)
        for i in range(d):
            for j in range(i + 1, d):
                def flip(*idx):
                    t = list(dx)
                    for q_ in idx:
                        t[q_] ^= 1
                    return codec.encode(t)
                a, b, c = flip(i), flip(i, j), flip(j)
                assert m[x, a] * m[a, b] * m[b, c] * m[c, x] == -1


def test_signed_matrix_validation():
    with pytest.raises(ValueError):
        SignedMatrix(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        SignedMatrix(np.array([[1, 1], [1, 0]]))
    with pytest.raises(ValueError):
        SignedMatrix(np.array([[0, 2], [2, 0]]))


def test_signed_double_cover_all_positive_is_two_copies():
    c5 = cycle_graph(5)
    m = np.zeros((5, 5), dtype=int)
    for u, v in c5.edges():
        m[u, v] = m[v, u] = 1
    cm = signed_double_cover(SignedMatrix(m))
    assert verify_cover(cm) == 2
    expected = {(min(2 * u + t, 2 * v + t), max(2 * u + t, 2 * v + t))
                for u, v in c5.edges() for t in (0, 1)}
    assert cm.total.edge_set() == expected


def test_signed_double_cover_of_q3_has_girth_6():
    cm = signed_double_cover(cohen_tits_signing(3))
    assert cm.total.n == 16
    assert girth(cm.total) == 6


def test_signed_k4_double_cover_is_cube():
    # Negative triangle on three vertices, positive edges to the fourth.
    m = np.array([
        [0, -1, -1, 1],
        [-1, 0, -1, 1],
        [-1, -1, 0, 1],
        [1, 1, 1, 0]])
    cm = signed_double_cover(SignedMatrix(m))
    assert verify_cover(cm) == 2
    assert brute_isomorphic(cm.total, hypercube(3))


@pytest.mark.parametrize("d", range(1, 5))
def test_signed_double_cover_spectrum_is_direct_sum(d):
    sm = cohen_tits_signing(d)
    cm = signed_double_cover(sm)
    cover_spec = np.array(hermitian_eigenvalues(adjacency_matrix(cm.total)).eigenvalues)
    base_spec = hermitian_eigenvalues(adjacency_matrix(cm.base)).eigenvalues
    signed_spec = hermitian_eigenvalues(sm.entries.astype(float)).eigenvalues
    direct_sum = np.sort(np.concatenate([base_spec, signed_spec]))[::-1]
    assert np.max(np.abs(cover_spec - direct_sum)) < 1e-8


@pytest.mark.parametrize("d", range(1, 8))
def test_signed_double_cover_of_cohen_tits_matches_the_edge_lift(d):
    sm = cohen_tits_signing(d)
    assert signed_double_cover(sm) == signed_double_cover_by_edges(sm)


@st.composite
def signed_matrices(draw):
    n = draw(st.integers(1, 8))
    m = np.zeros((n, n), dtype=int)
    for u, v in itertools.combinations(range(n), 2):
        m[u, v] = m[v, u] = draw(st.sampled_from((-1, 0, 1)))
    return SignedMatrix(m)


@settings(max_examples=100, deadline=None)
@given(signed_matrices())
def test_signed_double_cover_matches_the_edge_lift(sm):
    assert signed_double_cover(sm) == signed_double_cover_by_edges(sm)


# ---------------------------------------------------------------- induced covers

def test_induced_odd_cover_31():
    for sign in SIGNS:
        cm = odd_cover(3, 1, sign)
        assert cm.total.n == 9 and is_regular(cm.total) == 2
        assert cm.base == cycle_graph(3)
        assert verify_cover(cm) == 3


def test_induced_odd_cover_32():
    cm = odd_cover(3, 2, MINUS)
    assert cm.total.n == 81 and is_regular(cm.total) == 6
    assert cm.base.n == 27 and is_regular(cm.base) == 6
    assert verify_cover(cm) == 3
    assert not has_4cycle(cm.total)[0]
    plus = odd_cover(3, 2, PLUS)
    assert not has_4cycle(plus.total)[0]
    assert verify_cover(plus) == 3
