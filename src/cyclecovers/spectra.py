"""Root-of-unity twisted adjacency matrices, their spectra, and the
induced-subgraph degree bounds derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .covers import connection_set
from .gains import GainGraph
from .graphs import Graph
from .groups import SIGNS, extraspecial_cocycle

HERMITIAN_TOLERANCE = 1e-10
CLUSTER_TOLERANCE = 1e-6
INTEGER_SNAP = 1e-9
MAX_EIGEN_SIZE = 2000


class NotHermitianError(ValueError):
    pass


def adjacency_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.n, g.n))
    m[g.tails(), g.indices] = 1.0
    return m


def twisted_adjacency(gg: GainGraph, k: int) -> np.ndarray:
    """Entry (u, v) is the k-th power of the p-th root of unity raised to the
    arc gain; zero off the edge set. k = 0 returns the plain adjacency."""
    if not 0 <= k < gg.p:
        raise ValueError(f"twist must lie in [0, {gg.p})")
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
    by LAPACK through numpy.linalg.eigvalsh. Input must be conjugate-symmetric
    to 1e-10. Eigenvalues whose successive gaps are at most CLUSTER_TOLERANCE
    form one cluster.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError("input must be a square matrix")
    n = m.shape[0]
    if n > MAX_EIGEN_SIZE:
        raise ValueError(f"matrix size {n} exceeds the {MAX_EIGEN_SIZE} limit")
    deviation = float(np.max(np.abs(m - m.conj().T))) if n else 0.0
    if deviation > HERMITIAN_TOLERANCE:
        raise NotHermitianError(f"conjugate-symmetry deviation {deviation:.3e}")
    return _report(np.linalg.eigvalsh(m), source)


def twisted_spectra(p: int, dims: int, sign: str, twists: Iterable[int]) -> Iterator["SpectrumReport"]:
    """For each twist k in turn, the spectrum of the twisted matrix of the
    cocycle gain graph over C_p^dims, p^dims eigenvalues, without that
    matrix (README, "Twisted spectra from Stone-von Neumann blocks"). With
    d = ceil(dims / 2), that gain graph is gain_from_cocycle(p, d, sign)
    on the span of the first dims vectors of connection_set(p, d): all of
    Z_p^{2d} on even dims, a hyperplane on odd dims. At k = 0 it is the
    spectrum of C_p^dims, the sums over j of 2cos(2 pi m_j / p) for m in
    Z_p^dims. At k != 0 it is the spectrum of the p^d x p^d Hermitian
    matrix whose row a holds, for each of those vectors s = (s_a, s_b),
    omega^{k kappa(s, a)} in column a + s_a and omega^{-k kappa(s, a - s_a)}
    in column a - s_a, each eigenvalue repeated p^(dims - d) times. The
    phases are made once for all the twists."""
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    d = (dims + 1) // 2
    vectors = np.array(connection_set(p, d)[:dims])
    weights = p ** np.arange(d - 1, -1, -1)
    digits = np.arange(p ** d)[:, None] // weights % p  # row a, a_1 most significant
    behind = (digits[:, None] - vectors[:, :d]) % p
    heads = np.concatenate(((digits[:, None] + vectors[:, :d]) % p, behind), axis=1) @ weights
    # kappa(s, x) reads the first d digits of x, as gains.cocycle_rows does.
    halves = (vectors[:, :d].T, vectors[:, d:].T)
    phases = np.concatenate((
        extraspecial_cocycle(p, sign, halves, (digits.T[:, :, None], None)),
        -extraspecial_cocycle(p, sign, halves, (behind.transpose(2, 0, 1), None))), axis=1)
    powers = np.exp(2j * np.pi * np.arange(p) / p)
    cosines = 2 * np.cos(2 * np.pi * np.arange(p) / p)
    for k in twists:
        if not 0 <= k < p:
            raise ValueError(f"twist must lie in [0, {p})")
        if k == 0:
            values = np.zeros(1)
            for _ in range(dims):
                values = np.add.outer(values, cosines).ravel()
            yield _report(values)
            continue
        block = np.zeros((p ** d, p ** d), complex)
        # Two vectors may share +-s_a at p = 3, so their terms add.
        np.add.at(block, (np.arange(p ** d)[:, None], heads), powers[k * phases % p])
        yield _report(np.repeat(hermitian_eigenvalues(block).eigenvalues, p ** (dims - d)))


def _report(eigenvalues: np.ndarray, source: str = "") -> "SpectrumReport":
    """A report of the eigenvalues, given in any order."""
    eigenvalues = np.sort(eigenvalues)
    # A zero eigenvalue comes out as roundoff whose digits depend on the
    # LAPACK build; report it as 0.
    eigenvalues[np.abs(eigenvalues) <= INTEGER_SNAP] = 0.0
    descending = tuple(eigenvalues[::-1].tolist())
    return SpectrumReport(descending, _cluster(descending), len(descending), source)


def _cluster(descending: Sequence[float]) -> tuple[tuple[float, int], ...]:
    clusters = []
    i = 0
    while i < len(descending):
        j = i
        while j + 1 < len(descending) and descending[j] - descending[j + 1] <= CLUSTER_TOLERANCE:
            j += 1
        block = descending[i: j + 1]
        clusters.append((sum(block) / len(block), len(block)))
        i = j + 1
    return tuple(clusters)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues in descending order with multiplicity clusters."""

    eigenvalues: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]
    n: int
    source: str

    def __post_init__(self) -> None:
        if sum(mult for _, mult in self.clusters) != self.n:
            raise ValueError("cluster multiplicities must sum to n")

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "n": self.n,
            "eigenvalues": list(self.eigenvalues),
            "clusters": [{"value": v, "multiplicity": m} for v, m in self.clusters],
        }


@dataclass(frozen=True)
class BoundRow:
    size: int
    bound: float
    integer_bound: int


@dataclass(frozen=True)
class DegreeBoundTable:
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
