"""Connection sets, covering maps, and the cover constructions.

The extraspecial covers are Cayley graphs on the group carrier; the base is
the Cartesian power of a p-cycle in standard coordinates, reached from group
coordinates through the change of basis that sends the standard basis to the
connection vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, VertexCodec, cayley, cartesian_power, cycle_graph, hypercube, induced_subgraph
from .groups import (
    SIGNS,
    ExtraspecialElement,
    ExtraspecialGroup,
    HeisenbergGroup,
)
from .modular import Prime, Vector

MAX_COVER_SIZE = 10 ** 6


@dataclass(frozen=True)
class ConnectionSet:
    """The 2d connection vectors in Z_p^{2d}, two families of d each.

    family_a holds, for k = 1..d, the sum of the first k unit vectors of the
    first block and the first k-1 of the second; family_b doubles the k-th
    first-block unit and takes k vectors of the second block. ordered
    interleaves them a_1, b_1, a_2, b_2, ...
    """

    p: Prime
    d: int
    family_a: tuple[Vector, ...]
    family_b: tuple[Vector, ...]

    @property
    def ordered(self) -> tuple[Vector, ...]:
        out = []
        for a, b in zip(self.family_a, self.family_b):
            out.extend((a, b))
        return tuple(out)

    @property
    def tags(self) -> tuple[str, ...]:
        return ("a", "b") * self.d


def connection_set(p: int, d: int) -> ConnectionSet:
    """Build the two vector families; requires p odd and d >= 1."""
    p = Prime(p)
    if p == 2:
        raise ValueError("p must be odd for the extraspecial connection set")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    dim = 2 * d
    fam_a = []
    fam_b = []
    for k in range(1, d + 1):
        a = [0] * dim
        for i in range(k):
            a[i] = 1
        for j in range(k - 1):
            a[d + j] = 1
        fam_a.append(Vector(tuple(a), p))
        b = [0] * dim
        for i in range(k - 1):
            b[i] = 1
        b[k - 1] = (b[k - 1] + 2) % p
        for j in range(k):
            b[d + j] = 1
        fam_b.append(Vector(tuple(b), p))
    return ConnectionSet(p, d, tuple(fam_a), tuple(fam_b))


def _row_reduce_mod_p(mat: list[list[int]], p: int, ncols: int) -> int:
    """Gauss-Jordan elimination over Z_p in place on entries already in
    [0, p), pivoting on the first ncols columns only; returns the rank of
    those columns."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def modular_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over Z_p by Gaussian elimination."""
    mat = [[int(x) % p for x in row] for row in rows]
    return _row_reduce_mod_p(mat, p, len(mat[0]) if mat else 0)


@dataclass(frozen=True)
class BasisChange:
    """Invertible linear map on Z_p^{2d}; columns are the images of the
    standard basis, in connection-set order."""

    p: Prime
    columns: tuple[tuple[int, ...], ...]
    _inverse_rows: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def from_connection_set(cls, cs: ConnectionSet) -> "BasisChange":
        cols = tuple(v.coords for v in cs.ordered)
        inv_rows = _invert_mod_p([[cols[j][i] for j in range(len(cols))] for i in range(len(cols))], cs.p)
        return cls(cs.p, cols, tuple(tuple(r) for r in inv_rows))

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        """Image of x: the linear combination of the columns."""
        n = len(self.columns)
        if len(x) != n:
            raise ValueError("dimension mismatch")
        out = [0] * n
        for j, c in enumerate(x):
            if c % self.p:
                for i in range(n):
                    out[i] = (out[i] + c * self.columns[j][i]) % self.p
        return tuple(out)

    def apply_inverse(self, v: Sequence[int]) -> tuple[int, ...]:
        n = len(self.columns)
        if len(v) != n:
            raise ValueError("dimension mismatch")
        return tuple(sum(r[j] * v[j] for j in range(n)) % self.p for r in self._inverse_rows)


def _invert_mod_p(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Inverse over Z_p: reduce [A | I] on the columns of A."""
    n = len(matrix)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    if _row_reduce_mod_p(aug, p, n) < n:
        raise ValueError("matrix is singular mod p")
    return [row[n:] for row in aug]


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

    Verifies: the map is a homomorphism, fibers are independent sets of equal
    size, and every base edge induces a perfect matching between the two
    fibers. Raises CoverVerificationError with the offending vertex or edge.
    """
    total, base, gamma = cm.total, cm.base, cm.fiber_map
    if len(gamma) != total.n:
        raise CoverVerificationError("map_domain", len(gamma))
    if any(not 0 <= b < base.n for b in gamma):
        raise CoverVerificationError("map_range", next(b for b in gamma if not 0 <= b < base.n))
    fibers: dict[int, list[int]] = {v: [] for v in range(base.n)}
    for u, b in enumerate(gamma):
        fibers[b].append(u)
    sizes = {len(f) for f in fibers.values()}
    if len(sizes) != 1:
        small = min(fibers, key=lambda v: len(fibers[v]))
        big = max(fibers, key=lambda v: len(fibers[v]))
        raise CoverVerificationError("equal_fibers", (small, len(fibers[small]), big, len(fibers[big])))
    r = sizes.pop()
    if r == 0:
        raise CoverVerificationError("equal_fibers", "empty fibers")
    # matched[u][y] counts neighbors of u inside the fiber over y.
    matched: dict[tuple[int, int], int] = {}
    for u, v in total.edges():
        bu, bv = gamma[u], gamma[v]
        if bu == bv:
            raise CoverVerificationError("fiber_independence", (u, v))
        if not base.has_edge(bu, bv):
            raise CoverVerificationError("homomorphism", (u, v))
        matched[(u, bv)] = matched.get((u, bv), 0) + 1
        matched[(v, bu)] = matched.get((v, bu), 0) + 1
    for u in range(total.n):
        for y in base.neighbors(gamma[u]):
            if matched.get((u, y), 0) != 1:
                raise CoverVerificationError("perfect_matching", (u, gamma[u], y))
    return r


def lifted_connection(group: ExtraspecialGroup) -> tuple[ExtraspecialElement, ...]:
    """Embed the connection vectors at central coordinate 0 and close under
    inverse; the two halves are disjoint for odd p, giving 4d elements."""
    cs = connection_set(group.p, group.d)
    embedded = tuple(group.embed(v.coords) for v in cs.ordered)
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


def build_cover(p: int, d: int, sign: str) -> CoveringMap:
    """Cayley cover of the 4d-regular Cartesian power of a p-cycle.

    Total vertices are group elements in codec order; base vertices are
    standard coordinates of Z_p^{2d}, reached by inverting the basis change,
    so the base equals the iterated Cartesian product of p-cycles.
    """
    p = Prime(p)
    if p == 2:
        raise ValueError("p must be odd for extraspecial covers")
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if p ** (1 + 2 * d) > MAX_COVER_SIZE:
        raise ValueError(f"cover would exceed {MAX_COVER_SIZE} vertices")
    group = ExtraspecialGroup(p, d, sign)
    conn = lifted_connection(group)
    carrier = list(group.elements())
    total = cayley(carrier, group.mul, group.inv, conn)
    base = cartesian_power(cycle_graph(p), 2 * d)
    alpha = BasisChange.from_connection_set(connection_set(p, d))
    base_codec = VertexCodec((p,) * (2 * d))
    gamma = tuple(
        base_codec.encode(alpha.apply_inverse(g.a + g.b)) for g in carrier
    )
    return CoveringMap(total, base, gamma)


def heisenberg_cover(d: int) -> CoveringMap:
    """2-fold Cayley cover of the d-cube; the map drops the central bit."""
    if 2 ** (d + 1) > MAX_COVER_SIZE:
        raise ValueError(f"cover would exceed {MAX_COVER_SIZE} vertices")
    group = HeisenbergGroup(d)
    carrier = list(group.elements())
    total = cayley(carrier, group.mul, group.inv, group.generators())
    base = hypercube(d)
    gamma = tuple(vid // 2 for vid in range(total.n))
    return CoveringMap(total, base, gamma)


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
        edges = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                 if self.entries[u, v] != 0]
        return Graph(self.n, edges)


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
    """2-fold cover of the support graph: vertex v becomes 2v and 2v+1;
    positive edges lift parallel, negative edges lift crossed."""
    m = sm.entries
    edges = []
    for u in range(sm.n):
        for v in range(u + 1, sm.n):
            if m[u, v] == 1:
                edges.append((2 * u, 2 * v))
                edges.append((2 * u + 1, 2 * v + 1))
            elif m[u, v] == -1:
                edges.append((2 * u, 2 * v + 1))
                edges.append((2 * u + 1, 2 * v))
    total = Graph(2 * sm.n, edges)
    gamma = tuple(vid // 2 for vid in range(2 * sm.n))
    return CoveringMap(total, sm.support_graph(), gamma)


def induced_odd_cover(p: int, d: int, sign: str) -> CoveringMap:
    """Restrict the even-dimensional cover over the base hyperplane with last
    standard coordinate 0, giving a p-fold cover of one fewer cycle factor."""
    cm = build_cover(p, d, sign)
    base_codec = VertexCodec((p,) * (2 * d))
    # Last digit is least significant, so kept base ids are exactly multiples of p.
    keep_base = [v for v in range(cm.base.n) if base_codec.decode(v)[2 * d - 1] == 0]
    base = induced_subgraph(cm.base, keep_base)
    keep_set = set(keep_base)
    base_newid = {v: i for i, v in enumerate(keep_base)}
    keep_total = [u for u in range(cm.total.n) if cm.fiber_map[u] in keep_set]
    total = induced_subgraph(cm.total, keep_total)
    gamma = tuple(base_newid[cm.fiber_map[u]] for u in keep_total)
    return CoveringMap(total, base, gamma)
