"""Root-of-unity twisted adjacency matrices, their spectra, and the
induced-subgraph degree bounds derived from them."""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .covers import power_exceeds
from .gains import GainGraph, cocycle_arcs
from .graphs import Graph

HERMITIAN_TOLERANCE = 1e-10
CLUSTER_TOLERANCE = 1e-6
INTEGER_SNAP = 1e-9
MAX_EIGEN_SIZE = 2000


class NotHermitianError(ValueError):
    pass


def _check_eigen_size(n: int) -> None:
    if n > MAX_EIGEN_SIZE:
        raise ValueError(f"matrix size {n} exceeds the {MAX_EIGEN_SIZE} limit")


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix of g. ValueError before it is made for more
    than MAX_EIGEN_SIZE vertices, which hermitian_eigenvalues refuses."""
    _check_eigen_size(g.n)
    m = np.zeros((g.n, g.n))
    m[g.tails(), g.indices] = 1.0
    return m


def twisted_adjacency(gg: GainGraph, k: int) -> np.ndarray:
    """Entry (u, v) is the k-th power of the p-th root of unity raised to the
    arc gain; zero off the edge set. k = 0 returns the plain adjacency.
    ValueError before it is made for more than MAX_EIGEN_SIZE vertices."""
    k = operator.index(k)
    if not 0 <= k < gg.p:
        raise ValueError(f"twist must lie in [0, {gg.p})")
    _check_eigen_size(gg.base.n)
    powers = np.array([np.exp(2j * math.pi * j / gg.p) for j in range(gg.p)])
    tails, heads, values = gg.arc_arrays()
    up = tails < heads
    tails, heads = tails[up], heads[up]
    m = np.zeros((gg.base.n, gg.base.n), dtype=complex)
    m[tails, heads] = powers[k * values[up] % gg.p]
    # Exact conjugate symmetry by construction.
    m[heads, tails] = m[tails, heads].conj()
    return m


def hermitian_eigenvalues(m: np.ndarray, source: str = "") -> "SpectrumReport":
    """All real eigenvalues of a real symmetric or complex Hermitian matrix,
    by LAPACK through numpy.linalg.eigvalsh. Input must be finite and
    conjugate-symmetric to 1e-10. Eigenvalues whose successive gaps are at
    most CLUSTER_TOLERANCE form one cluster.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError("input must be a square matrix")
    n = m.shape[0]
    _check_eigen_size(n)
    if not np.isfinite(m).all():  # a NaN deviation would pass the check below
        raise NotHermitianError("entries must be finite")
    deviation = float(np.max(np.abs(m - m.conj().T))) if n else 0.0
    if deviation > HERMITIAN_TOLERANCE:
        raise NotHermitianError(f"conjugate-symmetry deviation {deviation:.3e}")
    return _report(np.linalg.eigvalsh(m), source)


def twisted_spectra(p: int, dims: int, sign: str, twists: Iterable[int]) -> Iterator["SpectrumReport"]:
    """For each twist k in turn, the spectrum of the twisted matrix of the
    cocycle gain graph over C_p^dims, p^dims eigenvalues, without that
    matrix (README, "Twisted spectra from Stone-von Neumann blocks"). With
    d = ceil(dims / 2), that gain graph is gain_from_cocycle(p, d, sign)
    on the span of its first dims connection vectors: all of Z_p^{2d} on
    even dims, a hyperplane on odd dims. At k = 0 it is the
    spectrum of C_p^dims, the sums over j of 2cos(2 pi m_j / p) for m in
    Z_p^dims. At k != 0 it is the spectrum of the p^d x p^d Hermitian
    matrix whose row a holds, for each of those vectors s = (s_a, s_b),
    omega^{k kappa(s, a)} in column a + s_a and omega^{-k kappa(s, a - s_a)}
    in column a - s_a, each eigenvalue repeated p^(dims - d) times. The
    phases are made once for all the twists. ValueError at the call, before
    any spectrum is computed: for dims < 1, a block of more than
    MAX_EIGEN_SIZE rows, a sign, p or count that cocycle_arcs refuses, or a
    twist outside [0, p); twists is read whole first."""
    dims = operator.index(dims)
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    d = (dims + 1) // 2
    if power_exceeds(p, d, MAX_EIGEN_SIZE):
        raise ValueError(f"block size {p}^{d} exceeds the {MAX_EIGEN_SIZE} limit")
    # Row a of the block is row (a, 0) of the arcs read in its first d
    # digits, since kappa(s, x) reads only x's first block.
    keys = cocycle_arcs(p, d, sign, dims)(np.arange(p ** d) * p ** d)
    twists = [operator.index(k) for k in twists]
    if not all(0 <= k < p for k in twists):
        raise ValueError(f"twist must lie in [0, {p})")
    return _block_spectra(p, dims, d, keys, twists)


def _block_spectra(p: int, dims: int, d: int, keys: np.ndarray,
                   twists: list[int]) -> Iterator["SpectrumReport"]:
    """The spectra of twisted_spectra, one twist at a time, from the block
    arcs keys of cocycle_arcs."""
    columns, phases = keys // p ** (d + 1), keys % p
    powers = np.exp(2j * np.pi * np.arange(p) / p)
    cosines = 2 * np.cos(2 * np.pi * np.arange(p) / p)
    for k in twists:
        if k == 0:
            values = np.zeros(1)
            for _ in range(dims):
                values = np.add.outer(values, cosines).ravel()
            yield _report(values)
            continue
        block = np.zeros((p ** d, p ** d), complex)
        # Two vectors may share +-s_a at p = 3, so their terms add.
        np.add.at(block, (np.arange(p ** d)[:, None], columns), powers[k * phases % p])
        yield _report(np.repeat(hermitian_eigenvalues(block).eigenvalues, p ** (dims - d)))


def _report(eigenvalues: np.ndarray, source: str = "") -> "SpectrumReport":
    """A report of the eigenvalues, given in any order."""
    eigenvalues = np.sort(eigenvalues)
    # A zero eigenvalue comes out as roundoff whose digits depend on the
    # LAPACK build; report it as 0.
    eigenvalues[np.abs(eigenvalues) <= INTEGER_SNAP] = 0.0
    return SpectrumReport(tuple(eigenvalues[::-1].tolist()), source)


class SpectrumReport(NamedTuple):
    """Eigenvalues in descending order, and what they are the spectrum of;
    n and the multiplicity clusters are read from the eigenvalues."""

    eigenvalues: tuple[float, ...]
    source: str

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def clusters(self) -> tuple[tuple[float, int], ...]:
        """(mean, multiplicity) of each run of eigenvalues whose successive
        gaps are at most CLUSTER_TOLERANCE, computed on each read."""
        runs = []
        for value in self.eigenvalues:
            if runs and runs[-1][-1] - value <= CLUSTER_TOLERANCE:
                runs[-1].append(value)
            else:
                runs.append([value])
        return tuple((sum(run) / len(run), len(run)) for run in runs)

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "n": self.n,
            "eigenvalues": list(self.eigenvalues),
            "clusters": [{"value": v, "multiplicity": m} for v, m in self.clusters],
        }


class BoundRow(NamedTuple):
    size: int
    bound: float
    integer_bound: int


class DegreeBoundTable(NamedTuple):
    """Per-subgraph-size lower bounds on the maximum degree."""

    rows: tuple[BoundRow, ...]

    def minimal_rows(self) -> dict[int, BoundRow]:
        """For each degree t from 1 to the largest integer bound, the first
        row whose integer bound is at least t. The integer bounds of a
        huang_degree_bound table never decrease with the size, so one pass
        over the rows finds them in order."""
        first: dict[int, BoundRow] = {}
        for row in self.rows:
            for degree in range(len(first) + 1, row.integer_bound + 1):
                first[degree] = row
        return first


def snap_ceil(x: float) -> int:
    """Smallest integer >= x, treating values within INTEGER_SNAP of an
    integer as exactly that integer."""
    nearest = round(x)
    if abs(x - nearest) <= INTEGER_SNAP:
        return int(nearest)
    return math.ceil(x)


def huang_degree_bound(report: SpectrumReport, ranking: str = "eigenvalue") -> DegreeBoundTable:
    """Bound the maximum degree of every s-vertex induced subgraph.

    ranking="eigenvalue": bound(s) is the (n-s+1)-th largest eigenvalue; any
    s-vertex principal submatrix B has lambda_1(B) at least that value by
    interlacing, and the max row sum of entry moduli bounds lambda_1(B) by
    the subgraph's maximum degree.

    ranking="magnitude": same table over |eigenvalue| in descending order.
    Stronger when large eigenvalues are negative, but not implied by
    interlacing; use it as a heuristic threshold, not a proof.
    """
    if ranking == "eigenvalue":
        vals = list(report.eigenvalues)
    elif ranking == "magnitude":
        vals = sorted((abs(x) for x in report.eigenvalues), reverse=True)
    else:
        raise ValueError(f"unknown ranking {ranking!r}")
    n = report.n
    rows = []
    for s in range(1, n + 1):
        bound = vals[n - s]
        rows.append(BoundRow(s, float(bound), snap_ceil(bound)))
    return DegreeBoundTable(tuple(rows))
