"""Connection sets, covering maps, and the cover constructions.

The extraspecial covers are Cayley graphs on the group carrier; the base is
the Cartesian power of a p-cycle in standard coordinates, reached from group
coordinates through the change of basis that sends the standard basis to the
connection vectors (standard_ids).

A gain graph labels each ordered adjacent pair with a residue mod p,
antisymmetric under swapping the endpoints. Its cover (cover_from_gain)
places p copies of each vertex and joins (u, j) to (v, j + gain(u, v)) along
each arc; the signed double cover is that lift at p = 2.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphs import Graph, cayley, cartesian_power, cycle_graph, hypercube
from .groups import (
    SIGNS,
    ExtraspecialElement,
    ExtraspecialGroup,
    extraspecial_group,
    low_bit_parities,
)
from .modular import Prime

MAX_COVER_SIZE = 10 ** 6


def power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """Whether base ** exponent > cap for base >= 2, forming no power past cap's bit length."""
    return exponent > cap.bit_length() or base ** exponent > cap


def connection_set(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The 2d connection vectors in Z_p^{2d}, interleaved a_1, b_1, a_2, b_2, ...

    For k = 1..d, a_k is the sum of the first k unit vectors of the first
    block and the first k-1 of the second; b_k doubles the k-th first-block
    unit and takes k vectors of the second block. Requires p odd and d >= 1.
    """
    p = Prime(p)
    if p == 2:
        raise ValueError("p must be odd for the extraspecial connection set")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    out = []
    for k in range(1, d + 1):
        a = [0] * (2 * d)
        a[:k] = [1] * k
        a[d: d + k - 1] = [1] * (k - 1)
        b = [0] * (2 * d)
        b[: k - 1] = [1] * (k - 1)
        b[k - 1] = 2
        b[d: d + k] = [1] * k
        out += [tuple(a), tuple(b)]
    return tuple(out)


def standard_ids(p: int, d: int) -> tuple[int, ...]:
    """The change of basis that sends the standard basis to the connection
    vectors, as a table: indexed by a base vertex's id in connection (group)
    coordinates, it gives the vertex's id in standard coordinates. The vector
    sum_j x_j c_j gets the id of x. Raises ValueError unless the table is a
    bijection, that is unless the connection vectors are a basis mod p."""
    vectors = np.array(connection_set(p, d), dtype=np.int64)
    dim = 2 * d
    x = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
    connection_ids = (x @ vectors % p) @ (p ** np.arange(dim - 1, -1, -1))
    table = np.full(len(x), -1)
    table[connection_ids] = np.arange(len(x))
    if (table < 0).any():
        raise ValueError(f"connection vectors are not a basis mod {p}")
    return tuple(table.tolist())


def modular_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over Z_p by Gaussian elimination."""
    mat = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] * inv
            mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class CoveringMap:
    """A graph homomorphism total -> base given as a per-vertex array."""

    total: Graph
    base: Graph
    fiber_map: tuple[int, ...]

    def fiber_map_text(self) -> str:
        """One line per total vertex: "total_id base_id"."""
        return "\n".join(f"{u} {b}" for u, b in enumerate(self.fiber_map)) + "\n"


class CoverVerificationError(Exception):
    """A covering-map axiom failed; carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness!r}")


def verify_cover(cm: CoveringMap) -> int:
    """Check the covering axioms and return the fold count.

    After the map's domain and range and the fiber sizes, one comparison per
    total vertex u: the images of u's neighbours, sorted, must be the
    neighbours of u's image. That holds exactly when the map is a
    homomorphism, fibers are independent sets (the base has no loops) and
    every base edge induces a perfect matching between its two fibers.
    Raises CoverVerificationError with the offending vertex or edge.
    """
    total, base, gamma = cm.total, cm.base, cm.fiber_map
    if len(gamma) != total.n:
        raise CoverVerificationError("map_domain", len(gamma))
    if any(not 0 <= b < base.n for b in gamma):
        raise CoverVerificationError("map_range", next(b for b in gamma if not 0 <= b < base.n))
    if not gamma:
        raise CoverVerificationError("equal_fibers", "empty fibers")
    sizes = Counter(gamma)
    if len(sizes) < base.n or len(set(sizes.values())) > 1:
        small = min(range(base.n), key=sizes.__getitem__)
        big = max(range(base.n), key=sizes.__getitem__)
        raise CoverVerificationError("equal_fibers", (small, sizes[small], big, sizes[big]))
    image = gamma.__getitem__
    for u in range(total.n):
        if tuple(sorted(map(image, total.neighbors(u)))) != base.neighbors(gamma[u]):
            raise _broken_axiom(cm, u)
    return len(gamma) // base.n


def _broken_axiom(cm: CoveringMap, u: int) -> CoverVerificationError:
    """The error for the first broken axiom, row u being the first row that
    fails: the first edge, in edges() order, that lies inside a fiber or maps
    onto a non-edge; with no such edge, the first neighbour of u's image that
    u's neighbours do not hit exactly once."""
    total, base, gamma = cm.total, cm.base, cm.fiber_map
    for a, b in total.edges():
        if gamma[a] == gamma[b]:
            return CoverVerificationError("fiber_independence", (a, b))
        if not base.has_edge(gamma[a], gamma[b]):
            return CoverVerificationError("homomorphism", (a, b))
    hits = Counter(gamma[v] for v in total.neighbors(u))
    y = next(y for y in base.neighbors(gamma[u]) if hits[y] != 1)
    return CoverVerificationError("perfect_matching", (u, gamma[u], y))


def lifted_connection(group: ExtraspecialGroup) -> tuple[ExtraspecialElement, ...]:
    """Embed the connection vectors at central coordinate 0 and close under
    inverse; the two halves are disjoint for odd p, giving 4d elements."""
    embedded = tuple(group.embed(v) for v in connection_set(group.p, group.d))
    inverses = tuple(group.inv(g) for g in embedded)
    overlap = set(embedded) & set(inverses)
    if overlap:
        raise ValueError(f"connection set meets its inverses at {overlap!r}")
    return embedded + inverses


@dataclass(frozen=True)
class NoncommutingReport:
    """Commutators of all ordered pairs of the embedded connection vectors."""

    ok: bool
    all_central_units: bool
    table: tuple[tuple[int, int, int], ...]  # (i, j, central coordinate of [g_i, g_j])
    witness: Optional[tuple[int, int]]


def pairwise_noncommuting_check(group: ExtraspecialGroup,
                                elements: Sequence[ExtraspecialElement]) -> NoncommutingReport:
    """Verify no two distinct elements commute; commutators must be central
    with last coordinate +-1."""
    table = []
    ok = True
    central_units = True
    witness = None
    zero = (0,) * group.d
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            if i == j:
                continue
            c = group.commutator(g, h)
            table.append((i, j, c.z))
            if c == group.identity:
                ok = False
                if witness is None:
                    witness = (i, j)
            if not (c.a == zero and c.b == zero and c.z in (1, group.p - 1)):
                central_units = False
    return NoncommutingReport(ok, central_units, tuple(table), witness)


def _fibers(base_ids: Sequence[int], fold: int) -> tuple[int, ...]:
    """The fiber map that sends total vertex u to base_ids[u // fold]: each
    id object repeated fold times, so the map holds one int per base vertex,
    not one per total vertex."""
    return tuple(itertools.chain.from_iterable(itertools.repeat(b, fold) for b in base_ids))


def build_cover(p: int, d: int, sign: str) -> CoveringMap:
    """Cayley cover of the 4d-regular Cartesian power of a p-cycle.

    Total vertices are group elements in codec order, so u // p is the id of
    u's first 2d coordinates; base vertices are standard coordinates of
    Z_p^{2d}, reached through standard_ids, so the base equals the iterated
    Cartesian product of p-cycles.
    """
    p = Prime(p)
    if p == 2:
        raise ValueError("p must be odd for extraspecial covers")
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if power_exceeds(p, 1 + 2 * d, MAX_COVER_SIZE):
        raise ValueError(f"cover would exceed {MAX_COVER_SIZE} vertices")
    group = extraspecial_group(p, d, sign)
    conn = lifted_connection(group)
    carrier = list(group.elements())
    total = cayley(carrier, group.mul, group.inv, conn)
    base = cartesian_power(cycle_graph(p), 2 * d)
    return CoveringMap(total, base, _fibers(standard_ids(p, d), p))


def heisenberg_cover(d: int) -> CoveringMap:
    """2-fold Cayley cover of the d-cube; the map drops the central bit.

    Vertex v = 2x + t is the element (x, t) of HeisenbergGroup(d), and row v
    holds the products (e_i, 0)(x, t) = (x + e_i, t + sum_{j>i} x_j), the rows
    cayley would build from the generators. With k = d - i, e_i is bit k of
    x and the sum is the parity of the k low bits of x, so the neighbours of
    v are v XOR 2^(k+1) XOR that parity.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if power_exceeds(2, d + 1, MAX_COVER_SIZE):
        raise ValueError(f"cover would exceed {MAX_COVER_SIZE} vertices")

    def neighbours(v: np.ndarray) -> np.ndarray:
        parities = low_bit_parities(v >> 1, d)
        return np.column_stack([v ^ (2 << k) ^ parity for k, parity in enumerate(parities)])

    total = Graph._from_id_arithmetic(2 ** (d + 1), neighbours)
    return CoveringMap(total, hypercube(d), _fibers(range(2 ** d), 2))


class GainGraph:
    """A base graph with an antisymmetric arc labeling into Z_p, held in rows
    aligned with the base's neighbour rows: gains[u][i] is the gain of the
    arc from u to base.neighbors(u)[i]. Raises ValueError unless each row
    has one gain per neighbour and gain(v, u) = -gain(u, v) mod p."""

    def __init__(self, base: Graph, p: int, gains: Sequence[Sequence[int]]):
        self.base = base
        self.p = Prime(p)
        lengths = list(map(len, gains))
        if lengths != list(map(len, base._adj)):
            raise ValueError("gain rows must hold one gain per neighbour")
        flat = itertools.chain.from_iterable(gains)
        try:
            values = np.fromiter(flat, np.int64, sum(lengths))
        except OverflowError:  # a gain past int64 is reduced as a Python int
            flat = (int(g) % self.p for g in itertools.chain.from_iterable(gains))
            values = np.fromiter(flat, np.int64, sum(lengths))
        values %= self.p
        residues = values.tolist()
        ends = itertools.accumulate(lengths)
        self.gains = tuple(tuple(residues[end - k:end]) for k, end in zip(lengths, ends))
        tails, heads, _ = self.arc_arrays()
        # Sorted by (head, tail), the arcs are the reverses of the row order's.
        reverse = np.lexsort((tails, heads))
        bad = np.flatnonzero((values + values[reverse]) % self.p)
        if bad.size:
            raise ValueError(f"inconsistent gain at arc ({tails[bad[0]]},{heads[bad[0]]})")

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tails, heads and gains of every arc in row order, as int64 arrays."""
        rows = self.base._adj
        tails = np.repeat(np.arange(len(rows)), np.fromiter(map(len, rows), np.int64, len(rows)))
        heads = np.fromiter(itertools.chain.from_iterable(rows), np.int64, len(tails))
        values = np.fromiter(itertools.chain.from_iterable(self.gains), np.int64, len(tails))
        return tails, heads, values

    def gain(self, u: int, v: int) -> int:
        """The gain of the arc u -> v; ValueError when uv is not an edge."""
        return self.gains[u][self.base.neighbors(u).index(v)]

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Canonical arcs (u, v, gain) with u < v, ascending."""
        for u, (row, gains) in enumerate(zip(self.base._adj, self.gains)):
            for v, g in zip(row, gains):
                if v > u:
                    yield u, v, g

    def restrict(self, vertices: Sequence[int]) -> "GainGraph":
        """Induced gain graph on the given vertices, relabeled in list order."""
        remap = {v: i for i, v in enumerate(vertices)}
        if len(remap) != len(vertices):
            raise ValueError("vertex list contains repeats")
        kept = [sorted((remap[w], g) for w, g in zip(self.base.neighbors(v), self.gains[v])
                       if w in remap) for v in vertices]
        sub = Graph._from_rows(tuple(w for w, _ in row) for row in kept)
        return GainGraph(sub, self.p, [[g for _, g in row] for row in kept])


def cover_from_gain(gg: GainGraph) -> CoveringMap:
    """p-fold cover on V x Z_p: (u, j) ~ (v, j + gain(u, v)); ids are u*p + j,
    so row u*p + j, made from row u, ascends as row u does."""
    p = gg.p
    total = Graph._from_rows(
        tuple(v * p + (j + g) % p for v, g in zip(row, gains))
        for row, gains in zip(gg.base._adj, gg.gains) for j in range(p))
    return CoveringMap(total, gg.base, _fibers(range(gg.base.n), p))


@dataclass(frozen=True)
class SignedMatrix:
    """Symmetric matrix with entries in {-1, 0, +1} and zero diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("signed matrix must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("signed matrix must be symmetric")
        if not np.all(np.isin(m, (-1, 0, 1))):
            raise ValueError("entries must be in {-1, 0, 1}")
        if np.any(np.diag(m) != 0):
            raise ValueError("diagonal must be zero")
        object.__setattr__(self, "entries", m.astype(np.int8))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def support_graph(self) -> Graph:
        return Graph._from_rows(tuple(np.flatnonzero(row).tolist()) for row in self.entries)


def cohen_tits_signing(d: int) -> SignedMatrix:
    """The recursive signing of the d-cube: two oppositely signed copies of
    the previous signing joined by an all-positive perfect matching."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    a = np.array([[0, 1], [1, 0]], dtype=np.int64)
    for _ in range(d - 1):
        eye = np.eye(a.shape[0], dtype=np.int64)
        a = np.block([[a, eye], [eye, -a]])
    return SignedMatrix(a)


def signed_double_cover(sm: SignedMatrix) -> CoveringMap:
    """2-fold cover of the support graph, the lift of the Z_2 gain graph with
    gain 1 on the negative entries: vertex v becomes 2v and 2v+1; positive
    edges lift parallel, negative edges lift crossed."""
    gains = [(row == -1)[row != 0].tolist() for row in sm.entries]
    return cover_from_gain(GainGraph(sm.support_graph(), 2, gains))
