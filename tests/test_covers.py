import itertools

import numpy as np
import pytest

from cyclecovers.covers import (
    BasisChange,
    CoveringMap,
    CoverVerificationError,
    SignedMatrix,
    build_cover,
    cohen_tits_signing,
    connection_set,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    signed_double_cover,
    verify_cover,
)
from cyclecovers.graphs import (
    Graph,
    cycle_graph,
    girth,
    has_4cycle,
    has_cycle_of_length,
    hypercube,
)
from cyclecovers.groups import MINUS, PLUS, SIGNS, ExtraspecialGroup
from cyclecovers.spectra import adjacency_matrix, hermitian_eigenvalues

from helpers import cover, cube_cover, odd_cover
from oracles import brute_isomorphic


# ---------------------------------------------------------------- connection set

def test_connection_set_d2_values():
    cs = connection_set(3, 2)
    assert [v.coords for v in cs.ordered] == [
        (1, 0, 0, 0), (2, 0, 1, 0), (1, 1, 1, 0), (1, 2, 1, 1)]
    assert cs.tags == ("a", "b", "a", "b")


def test_connection_set_d1():
    cs = connection_set(5, 1)
    assert [v.coords for v in cs.family_a] == [(1, 0)]
    assert [v.coords for v in cs.family_b] == [(2, 1)]


def test_connection_set_rejects_even_prime():
    with pytest.raises(ValueError):
        connection_set(2, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_connection_set_is_basis(p, d):
    cs = connection_set(p, d)
    assert modular_rank([v.coords for v in cs.ordered], p) == 2 * d


def test_basis_change_roundtrip():
    for p, d in [(3, 2), (5, 1), (7, 3)]:
        alpha = BasisChange.from_connection_set(connection_set(p, d))
        for vec in itertools.islice(itertools.product(range(p), repeat=2 * d), 50):
            assert alpha.apply_inverse(alpha.apply(vec)) == tuple(vec)
            assert alpha.apply(alpha.apply_inverse(vec)) == tuple(vec)


def test_basis_change_sends_units_to_connection_vectors():
    cs = connection_set(3, 2)
    alpha = BasisChange.from_connection_set(cs)
    for i, v in enumerate(cs.ordered):
        unit = tuple(1 if j == i else 0 for j in range(4))
        assert alpha.apply(unit) == v.coords


# ---------------------------------------------------------------- lifted connection

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
        assert cm.total.n == 27 and cm.total.is_regular() == 4
        assert cm.base.n == 9 and cm.base.is_regular() == 4
        assert verify_cover(cm) == 3
        assert not has_4cycle(cm.total)[0]


def test_build_cover_51():
    cm = cover(5, 1, MINUS)
    assert cm.total.n == 125 and cm.total.is_regular() == 4
    assert verify_cover(cm) == 5
    assert not has_4cycle(cm.total)[0]


def test_build_cover_32():
    cm = cover(3, 2, MINUS)
    assert cm.total.n == 243 and cm.total.is_regular() == 8
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
    assert has_4cycle(total, root=0)[0] == has_4cycle(total)[0]
    # Same witness on plus covers, (False, None) on both paths for minus.
    assert has_cycle_of_length(total, p, root=0) == has_cycle_of_length(total, p)
    assert girth(total, 13, root=0) == girth(total, 13)


@pytest.mark.parametrize("d", range(1, 9))
def test_rooted_scans_match_all_roots_on_heisenberg_covers(d):
    total = cube_cover(d).total
    assert has_4cycle(total, root=0)[0] == has_4cycle(total)[0]
    g = girth(total, 13)
    assert girth(total, 13, root=0) == g
    if g is not None:
        assert has_cycle_of_length(total, g, root=0) == has_cycle_of_length(total, g)


# ---------------------------------------------------------------- verify_cover negatives

def test_verify_cover_identity_map():
    g = cycle_graph(5)
    assert verify_cover(CoveringMap(g, g, tuple(range(5)))) == 1


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


# ---------------------------------------------------------------- cube covers

def test_heisenberg_cover_small():
    cm = cube_cover(3)
    assert cm.total.n == 16 and cm.total.is_regular() == 3
    assert girth(cm.total) == 6
    assert verify_cover(cm) == 2
    assert cm.base == hypercube(3)


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
    from cyclecovers.graphs import VertexCodec

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


# ---------------------------------------------------------------- induced covers

def test_induced_odd_cover_31():
    for sign in SIGNS:
        cm = odd_cover(3, 1, sign)
        assert cm.total.n == 9 and cm.total.is_regular() == 2
        assert cm.base == cycle_graph(3)
        assert verify_cover(cm) == 3


def test_induced_odd_cover_32():
    cm = odd_cover(3, 2, MINUS)
    assert cm.total.n == 81 and cm.total.is_regular() == 6
    assert cm.base.n == 27 and cm.base.is_regular() == 6
    assert verify_cover(cm) == 3
    assert not has_4cycle(cm.total)[0]
    plus = odd_cover(3, 2, PLUS)
    assert not has_4cycle(plus.total)[0]
    assert verify_cover(plus) == 3
