import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, polyroots

from cyclecovers.covers import cohen_tits_signing
from cyclecovers.graphs import cycle_graph
from cyclecovers.groups import MINUS, PLUS, SIGNS, ExtraspecialGroup
from cyclecovers.spectra import (
    CLUSTER_TOLERANCE,
    MAX_EIGEN_SIZE,
    NotHermitianError,
    SpectrumReport,
    adjacency_matrix,
    hermitian_eigenvalues,
    huang_degree_bound,
    snap_ceil,
    twisted_adjacency,
    twisted_spectra,
)

from helpers import cover, dense_twisted_spectrum, gain_graph
from oracles import (DictGainGraph, block_eigenvalues_by_induction, charpoly_eigenvalues,
                     minimal_rows_by_scan)


# ---------------------------------------------------------------- twisted matrices

def test_twist_zero_is_adjacency():
    gg = gain_graph(3, 1, MINUS)
    m = twisted_adjacency(gg, 0)
    assert np.array_equal(m.real, adjacency_matrix(gg.base))
    assert not np.any(m.imag)


@pytest.mark.parametrize("sign", SIGNS)
def test_twisted_matrices_are_hermitian(sign):
    gg = gain_graph(3, 1, sign)
    for k in range(3):
        m = twisted_adjacency(gg, k)
        assert np.max(np.abs(m - m.conj().T)) == 0
        assert np.all(np.diag(m) == 0)


def test_twisted_row_sums_equal_base_degree():
    for p, d in [(3, 1), (3, 2)]:
        for sign in SIGNS:
            gg = gain_graph(p, d, sign)
            for k in range(p):
                m = twisted_adjacency(gg, k)
                row_sums = np.sum(np.abs(m), axis=1)
                assert np.allclose(row_sums, 4 * d, atol=1e-12)


def test_twist_range_validated():
    gg = gain_graph(3, 1, PLUS)
    with pytest.raises(ValueError):
        twisted_adjacency(gg, 3)
    # A float twist indexed numpy's table of powers, which raised IndexError.
    for k in (1.0, 0.5, "1"):
        with pytest.raises(TypeError):
            twisted_adjacency(gg, k)
        with pytest.raises(TypeError):
            next(twisted_spectra(3, 2, PLUS, [k]))
    assert twisted_adjacency(gg, np.int64(1)).shape == (9, 9)
    assert next(twisted_spectra(3, 2, PLUS, [np.int64(1)])).n == 9


# ---------------------------------------------------------------- eigensolver

def test_identity_matrix_spectrum():
    rep = hermitian_eigenvalues(np.eye(7))
    assert rep.clusters == ((1.0, 7),)


def test_cycle_spectrum_closed_form():
    for p in (5, 7, 9):
        rep = hermitian_eigenvalues(adjacency_matrix(cycle_graph(p)))
        expected = sorted((2 * math.cos(2 * math.pi * j / p) for j in range(p)), reverse=True)
        assert np.max(np.abs(np.array(rep.eigenvalues) - np.array(expected))) < 1e-10


@pytest.mark.parametrize("d", range(1, 7))
def test_signing_spectrum_plus_minus_sqrt_d(d):
    rep = hermitian_eigenvalues(cohen_tits_signing(d).entries.astype(float))
    root = math.sqrt(d)
    expected = [root] * (2 ** (d - 1)) + [-root] * (2 ** (d - 1))
    assert np.max(np.abs(np.array(rep.eigenvalues) - np.array(expected))) < 1e-8
    assert rep.clusters == ((pytest.approx(root, abs=1e-9), 2 ** (d - 1)),
                            (pytest.approx(-root, abs=1e-9), 2 ** (d - 1)))


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0, 1j], [1j * 1.0, 0]]))


@pytest.mark.parametrize("m", [
    [[1.0, 2.0], [np.nan, 0.0]],  # passed: NaN > 1e-10 is False
    [[np.nan]], [[np.inf]], [[0.0, np.inf], [np.inf, 0.0]], [[0, 1j], [-1j, np.nan]],
], ids=["nan-off-diagonal", "nan", "inf", "inf-symmetric", "complex-nan"])
def test_rejects_non_finite_entries(m):
    with pytest.raises(NotHermitianError, match="finite"):
        hermitian_eigenvalues(np.array(m))


def test_rejects_oversized():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros((2001, 2001)))


def test_solver_matches_charpoly_oracle_real():
    rng = random.Random(5)
    for n in (2, 3, 5, 8, 12, 16, 20):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(-3, 4)
                m[i][j] = v
                m[j][i] = v
        arr = np.array(m, dtype=float)
        got = np.array(hermitian_eigenvalues(arr).eigenvalues)[::-1]
        want = charpoly_eigenvalues(np.array(m))
        assert np.max(np.abs(got - want)) < 1e-8
        assert abs(np.sum(got) - np.trace(arr)) < 1e-9


def test_solver_matches_charpoly_oracle_complex():
    rng = random.Random(6)
    for n in (2, 3, 5, 8, 10):
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                re[i][j] = re[j][i] = rng.randrange(-2, 3)
                if i != j:
                    im[i][j] = rng.randrange(-2, 3)
                    im[j][i] = -im[i][j]
        m = np.array(re, dtype=complex) + 1j * np.array(im)
        got = np.array(hermitian_eigenvalues(m).eigenvalues)[::-1]
        want = charpoly_eigenvalues(m)
        assert np.max(np.abs(got - want)) < 1e-8


def test_trivial_sizes():
    assert hermitian_eigenvalues(np.array([[4.0]])).eigenvalues == (4.0,)
    assert hermitian_eigenvalues(np.zeros((0, 0))).eigenvalues == ()


def test_cluster_tolerance():
    # A gap of half the tolerance joins two eigenvalues, twice it splits them.
    rep = hermitian_eigenvalues(np.diag([1.0, 1.0 + CLUSTER_TOLERANCE / 2, 2.0]))
    assert [m for _, m in rep.clusters] == [1, 2]
    rep2 = hermitian_eigenvalues(np.diag([1.0, 1.0 + 2 * CLUSTER_TOLERANCE, 2.0]))
    assert [m for _, m in rep2.clusters] == [1, 1, 1]


def test_spectrum_report_reads_n_and_clusters_from_its_eigenvalues():
    rep = SpectrumReport((2.0, 1.0, 1.0, -3.0), "four")
    assert rep.n == 4
    assert rep.clusters == ((2.0, 1), (1.0, 2), (-3.0, 1))
    assert rep.to_json_dict()["n"] == 4


def test_spectrum_report_serialization():
    rep = hermitian_eigenvalues(np.diag([1.0, 1.0]), source="identity")
    doc = rep.to_json_dict()
    assert doc["source"] == "identity"
    assert doc["clusters"] == [{"value": 1.0, "multiplicity": 2}]


# ---------------------------------------------------------------- decomposition

@pytest.mark.parametrize("sign", SIGNS)
def test_cover_spectrum_decomposes_31(sign):
    cm = cover(3, 1, sign)
    gg = gain_graph(3, 1, sign)
    full = np.sort(np.array(hermitian_eigenvalues(adjacency_matrix(cm.total)).eigenvalues))
    parts = np.sort(np.concatenate(
        [hermitian_eigenvalues(twisted_adjacency(gg, k)).eigenvalues for k in range(3)]))
    assert np.max(np.abs(full - parts)) < 1e-8


def test_random_gain_spectra_decompose():
    # The decomposition is a property of gain covers in general, not of the
    # cocycle labelings alone.
    from cyclecovers.gains import GainGraph, cover_from_gain
    from cyclecovers.graphs import Graph

    rng = random.Random(51)
    for p in (3, 5):
        for _ in range(4):
            n = rng.randrange(4, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            base = Graph(n, edges)
            if base.m == 0:
                continue
            gains = {e: rng.randrange(p) for e in base.edges()}
            gg = GainGraph(base, p, DictGainGraph(base, p, gains).aligned())
            cm = cover_from_gain(gg)
            full = np.sort(np.array(
                hermitian_eigenvalues(adjacency_matrix(cm.total)).eigenvalues))
            parts = np.sort(np.concatenate([
                hermitian_eigenvalues(twisted_adjacency(gg, k)).eigenvalues
                for k in range(p)
            ]))
            assert np.max(np.abs(full - parts)) < 1e-8


# ---------------------------------------------------------------- Stone-von Neumann blocks

# Every (p, dims) whose base C_p^dims the eigensolver takes whole, but for
# (11, 3), whose twenty dense 1331 x 1331 solves take about 20 s.
BLOCK_CASES = [(p, dims) for p in (3, 5, 7, 11, 13) for dims in range(1, 7)
               if p ** dims <= MAX_EIGEN_SIZE and (p, dims) != (11, 3)]


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("p, dims", BLOCK_CASES)
def test_block_spectra_match_the_dense_twisted_spectra(p, dims, sign):
    for k, block in enumerate(twisted_spectra(p, dims, sign, range(p))):
        dense = dense_twisted_spectrum(p, dims, sign, k)
        assert block.n == dense.n == p ** dims
        assert np.max(np.abs(np.array(block.eigenvalues) - dense.eigenvalues)) < 1e-9
        assert [m for _, m in block.clusters] == [m for _, m in dense.clusters]
    with pytest.raises(ValueError, match="twist"):
        next(twisted_spectra(p, dims, sign, [p]))
    with pytest.raises(ValueError, match="sign"):
        next(twisted_spectra(p, dims, "other", [1]))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("p, dims", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3),
                                     (5, 3), (7, 3), (3, 4)])
def test_block_spectra_match_the_induced_representation_in_mpmath(p, dims, sign):
    for k, block in enumerate(twisted_spectra(p, dims, sign, range(1, p)), 1):
        got = np.array(block.eigenvalues[::-1])
        want = np.array(block_eigenvalues_by_induction(p, dims, sign, k), float)
        assert np.max(np.abs(got - np.repeat(want, p ** (dims // 2)))) < 1e-12


@pytest.mark.parametrize("sign", SIGNS)
def test_block_spectra_build_no_group(sign, monkeypatch):
    def refused(*args):
        raise AssertionError("ExtraspecialGroup built")

    monkeypatch.setattr(ExtraspecialGroup, "__init__", refused)
    for dims in (3, 4):
        reports = list(twisted_spectra(3, dims, sign, range(3)))
        assert [r.n for r in reports] == [3 ** dims] * 3


def test_block_size_checked_before_any_array(monkeypatch):
    # (3, 30) asked numpy for a 48 GiB block; (13, 6) built a 2197 x 2197
    # block before the eigensolver refused it.
    import cyclecovers.spectra as spectra

    def reached(*args):
        raise AssertionError("made the block's arcs")

    monkeypatch.setattr(spectra, "cocycle_arcs", reached)
    for p, dims in ((3, 30), (13, 6), (3, 14)):
        with pytest.raises(ValueError, match=f"exceeds the {MAX_EIGEN_SIZE} limit"):
            next(twisted_spectra(p, dims, PLUS, [1]))


# ---------------------------------------------------------------- degree bounds

def test_snap_ceil():
    assert snap_ceil(2.0000000001) == 2
    assert snap_ceil(1.9999999999) == 2
    assert snap_ceil(2.1) == 3
    assert snap_ceil(-2.6) == -2
    assert snap_ceil(3.0) == 3


def test_bound_table_largest_row_is_top_eigenvalue():
    gg = gain_graph(3, 1, MINUS)
    rep = hermitian_eigenvalues(twisted_adjacency(gg, 1))
    table = huang_degree_bound(rep)
    assert table.rows[-1].size == rep.n
    assert table.rows[-1].bound == rep.eigenvalues[0]
    bounds = [r.bound for r in table.rows]
    assert bounds == sorted(bounds)


def test_bound_rankings_differ_for_minus_twist():
    gg = gain_graph(3, 1, MINUS)
    rep = hermitian_eigenvalues(twisted_adjacency(gg, 1))
    signed = huang_degree_bound(rep, ranking="eigenvalue")
    magnitude = huang_degree_bound(rep, ranking="magnitude")
    assert signed.minimal_rows()[3].size == 7
    assert magnitude.minimal_rows()[3].size == 4
    # The magnitude bound at size 4 is the second-largest root magnitude of
    # x^3 - 6x + 2, each root having multiplicity 3.
    with mp.workdps(30):
        roots = sorted((abs(r) for r in polyroots([1, 0, -6, 2])), reverse=True)
        expected = float(roots[1])
    assert abs(magnitude.rows[3].bound - expected) < 1e-9
    with pytest.raises(ValueError):
        huang_degree_bound(rep, ranking="other")


# Eigenvalues on, just off and between the integers, where snap_ceil decides.
_EIGENVALUES = st.one_of(
    st.floats(-6, 6, allow_nan=False),
    st.tuples(st.integers(-6, 6), st.sampled_from([0.0, 1e-10, -1e-10, 1e-7, -1e-7])).map(sum),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_EIGENVALUES, min_size=1, max_size=12), st.sampled_from(["eigenvalue", "magnitude"]))
def test_minimal_rows_match_the_scan(values, ranking):
    table = huang_degree_bound(hermitian_eigenvalues(np.diag(values)), ranking=ranking)
    assert table.minimal_rows() == minimal_rows_by_scan(table)


def test_interlacing_sanity_random_submatrices():
    rng = random.Random(9)
    for p, d, sign in [(3, 1, PLUS), (3, 1, MINUS)]:
        gg = gain_graph(p, d, sign)
        m = twisted_adjacency(gg, 1)
        n = m.shape[0]
        full = hermitian_eigenvalues(m).eigenvalues
        for _ in range(100):
            s = rng.randrange(1, n + 1)
            subset = sorted(rng.sample(range(n), s))
            sub = m[np.ix_(subset, subset)]
            top = hermitian_eigenvalues(sub).eigenvalues[0]
            assert top >= full[n - s] - 1e-9
