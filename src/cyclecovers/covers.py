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

import operator
from collections import Counter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import (_BLOCK, Graph, RowFunction, cayley, cycle_power, hypercube, hypercube_rows,
                     id_blocks, write_pairs)
from .groups import SIGNS, ExtraspecialGroup, HeisenbergGroup, extraspecial_group
from .modular import Prime
from .reporting import check_ints

MAX_COVER_SIZE = 10 ** 6

# Total-graph rows per block of verify_cover's array comparison.
_ROWS = 1024


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


def standard_ids(p: int, d: int) -> np.ndarray:
    """The change of basis that sends the standard basis to the connection
    vectors, as a table: indexed by a base vertex's id in connection (group)
    coordinates, it gives the vertex's id in standard coordinates, as an
    int64 array. The vector sum_j x_j c_j gets the id of x. Raises
    ValueError unless the table is a bijection, that is unless the
    connection vectors are a basis mod p."""
    vectors = connection_set(p, d)
    weights = [p ** k for k in reversed(range(2 * d))]
    ids = np.arange(p ** (2 * d))
    # Coordinate k of sum_j x_j c_j, from the digit columns x_j of the ids,
    # one coordinate at a time: no (ids, 2d) matrix is made.
    connection_ids = np.zeros_like(ids)
    for k, weight in enumerate(weights):
        coordinate = sum(ids // w % p * c[k] for w, c in zip(weights, vectors) if c[k])
        connection_ids += coordinate % p * weight
    table = np.full(len(ids), -1)
    table[connection_ids] = ids
    if (table < 0).any():
        raise ValueError(f"connection vectors are not a basis mod {p}")
    return table


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


class CoveringMap:
    """A graph homomorphism total -> base given as a per-vertex array: an
    int array from the builders, any int sequence from a caller. Maps are
    equal when their graphs and fiber maps are. Not a tuple, so that
    iteration, hashing and != never reach the fiber map."""

    __slots__ = ("total", "base", "fiber_map")

    def __init__(self, total: Graph, base: Graph, fiber_map: Sequence[int]):
        self.total, self.base, self.fiber_map = total, base, fiber_map

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoveringMap) and self.total == other.total
                and self.base == other.base and np.array_equal(self.fiber_map, other.fiber_map))

    def fiber_array(self) -> np.ndarray:
        """The fiber map as an int64 array; TypeError for an entry that is
        not an integer (reporting.check_ints)."""
        check_ints(self.fiber_map)
        return np.asarray(self.fiber_map, dtype=np.int64)

    def write_fiber_map(self, write: Callable[[str], object]) -> None:
        """Write one line "total_id base_id" per total vertex through write."""
        gamma = self.fiber_array()
        write_pairs([np.column_stack((np.arange(len(gamma)), gamma))],
                    max(len(gamma), self.base.n), write)


class RowCover(NamedTuple):
    """A covering map given by row functions, for covers written a block of
    ids at a time (graphs.id_blocks) and never held whole: total vertices
    0..n-1 with rows, base vertices 0..base_n-1 with base_rows, and fibers
    mapping a block of total ids to their base ids."""

    n: int
    rows: RowFunction
    base_n: int
    base_rows: RowFunction
    fibers: Callable[[np.ndarray], np.ndarray]

    def fiber_blocks(self) -> Iterator[np.ndarray]:
        """The fiber map, one int64 array per block of total ids."""
        return map(self.fibers, id_blocks(self.n))

    def write_fiber_map(self, write: Callable[[str], object]) -> None:
        """Write the lines CoveringMap.write_fiber_map writes."""
        write_pairs((np.column_stack((ids, self.fibers(ids))) for ids in id_blocks(self.n)),
                    self.n, write)


class CoverVerificationError(Exception):
    """A covering-map axiom failed; carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness!r}")


def verify_cover(cm: CoveringMap) -> int:
    """Check the covering axioms and return the fold count.

    After the map's domain and range and the fiber sizes, one array
    comparison: row u of the total graph, mapped through the fiber map and
    sorted, must be the base row of u's image, for every u. That holds
    exactly when the map is a homomorphism, fibers are independent sets (the
    base has no loops) and every base edge induces a perfect matching
    between its two fibers. Raises CoverVerificationError with the
    offending vertex or edge, TypeError for a fiber map entry that is not
    an integer.
    """
    total, base = cm.total, cm.base
    gamma = cm.fiber_array()
    if len(gamma) != total.n:
        raise CoverVerificationError("map_domain", len(gamma))
    outside = (gamma < 0) | (gamma >= base.n)
    if outside.any():
        raise CoverVerificationError("map_range", int(gamma[outside.argmax()]))
    if not len(gamma):
        raise CoverVerificationError("equal_fibers", "empty fibers")
    sizes = np.bincount(gamma, minlength=base.n)
    if sizes.min() != sizes.max():
        small, big = int(sizes.argmin()), int(sizes.argmax())
        raise CoverVerificationError("equal_fibers", (small, int(sizes[small]),
                                                      big, int(sizes[big])))
    # Rows before the first one whose degree differs from its image's line
    # up entry by entry with the base rows they must equal. They are
    # compared _ROWS at a time, so the temporaries stay small.
    degrees = np.diff(total.indptr)
    fits = degrees == np.diff(base.indptr)[gamma]
    stop = total.n if fits.all() else int(fits.argmin())
    for start in range(0, stop, _ROWS):
        rows = np.arange(start, min(start + _ROWS, stop))
        tails = np.repeat(rows, degrees[rows])
        # Sorting row-major keys sorts each row's images and keeps rows in order.
        keys = np.sort(tails * base.n + gamma[total.indices[total.row_entries(rows)]])
        expected = base.indices[base.row_entries(gamma[rows])]
        differ = np.flatnonzero(keys - tails * base.n != expected)
        if differ.size:
            raise _broken_axiom(cm, gamma, int(tails[differ[0]]))
    if stop < total.n:
        raise _broken_axiom(cm, gamma, stop)
    return total.n // base.n


def _broken_axiom(cm: CoveringMap, gamma: np.ndarray, u: int) -> CoverVerificationError:
    """The error for the first broken axiom, row u being the first row that
    fails: the first edge, in edges() order, that lies inside a fiber or maps
    onto a non-edge; with no such edge, the first neighbour of u's image that
    u's neighbours do not hit exactly once."""
    total, base, image = cm.total, cm.base, gamma.tolist()
    for a, b in total.edges():
        if image[a] == image[b]:
            return CoverVerificationError("fiber_independence", (a, b))
        if not base.has_edge(image[a], image[b]):
            return CoverVerificationError("homomorphism", (a, b))
    hits = Counter(image[v] for v in total.neighbors(u))
    y = next(y for y in base.neighbors(image[u]) if hits[y] != 1)
    return CoverVerificationError("perfect_matching", (u, image[u], y))


def lifted_connection(group: ExtraspecialGroup) -> tuple[int, ...]:
    """Embed the connection vectors at central coordinate 0 and close under
    inverse; the two halves are disjoint for odd p, giving 4d elements."""
    embedded = tuple(group.embed(v) for v in connection_set(group.p, group.d))
    inverses = tuple(group.inv(g) for g in embedded)
    overlap = set(embedded) & set(inverses)
    if overlap:
        raise ValueError(f"connection set meets its inverses at {overlap!r}")
    return embedded + inverses


class NoncommutingReport(NamedTuple):
    """Commutators of all ordered pairs of the embedded connection vectors."""

    ok: bool
    all_central_units: bool
    table: tuple[tuple[int, int, int], ...]  # (i, j, central coordinate of [g_i, g_j])
    witness: Optional[tuple[int, int]]


def pairwise_noncommuting_check(group: ExtraspecialGroup,
                                elements: Sequence[int]) -> NoncommutingReport:
    """Verify no two distinct elements commute; commutators must be central
    with last coordinate +-1. A central element has a = b = 0, so its id is
    its last coordinate."""
    pairs = [(i, j, group.commutator(g, h)) for i, g in enumerate(elements)
             for j, h in enumerate(elements) if i != j]
    witness = next(((i, j) for i, j, c in pairs if c == group.identity), None)
    return NoncommutingReport(witness is None, all(c in (1, group.p - 1) for _, _, c in pairs),
                              tuple((i, j, c % group.p) for i, j, c in pairs), witness)


def _extraspecial_prime(p: int, d: int, sign: str) -> Prime:
    """p as a Prime, after the checks that build_cover and
    gains.extraspecial_row_cover make
    before any work: ValueError for p = 2, an unknown sign, or a cover of
    more than MAX_COVER_SIZE vertices."""
    p = Prime(p)
    if p == 2:
        raise ValueError("p must be odd for extraspecial covers")
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if power_exceeds(p, 1 + 2 * d, MAX_COVER_SIZE):
        raise ValueError(f"cover would exceed {MAX_COVER_SIZE} vertices")
    return p


def build_cover(p: int, d: int, sign: str) -> CoveringMap:
    """Cayley cover of the 4d-regular Cartesian power of a p-cycle.

    Total vertices are the group's element ids, so u // p is the id of u's
    first 2d coordinates; base vertices are standard coordinates of
    Z_p^{2d}, reached through standard_ids, so the base is the Cartesian
    power of the p-cycle that cycle_power builds.

    verify is its only CLI caller; every other command builds from
    gains.extraspecial_row_cover. perfbench's traced test holds verify on
    this Cayley build, through group products (ROADMAP, the gate).
    """
    p = _extraspecial_prime(p, d, sign)
    group = extraspecial_group(p, d, sign)
    total = cayley(group.size, group.mul, group.inv, lifted_connection(group))
    return CoveringMap(total, cycle_power(p, 2 * d), np.repeat(standard_ids(p, d), p))


def heisenberg_row_cover(d: int) -> RowCover:
    """2-fold cover of the d-cube by rows of the Cayley graph of
    HeisenbergGroup(d); the map drops the central bit. Row v holds the
    products s v of the generators s = (e_i, 0), the ids 2 << k."""
    d = operator.index(d)
    if power_exceeds(2, d + 1, MAX_COVER_SIZE):
        raise ValueError(f"cover would exceed {MAX_COVER_SIZE} vertices")
    group = HeisenbergGroup(d)
    generators = 2 << np.arange(d)
    return RowCover(group.size, lambda v: np.sort(group.mul(generators, v[:, None]), axis=1),
                    2 ** d, hypercube_rows(d), lambda v: v >> 1)


def heisenberg_cover(d: int) -> CoveringMap:
    """The covering map of heisenberg_row_cover(d), built whole."""
    cover = heisenberg_row_cover(d)
    return CoveringMap(Graph._from_id_arithmetic(cover.n, cover.rows), hypercube(d),
                       cover.fibers(np.arange(cover.n)))


class GainGraph:
    """A base graph with an antisymmetric arc labeling into Z_p, held as an
    int64 array aligned with the base's indices: gains[i] is the gain of the
    arc from base.tails()[i] to base.indices[i]. Gains are reduced mod p;
    a gain past int64 is reduced as a Python int. Raises TypeError for a
    gain that is not an integer (reporting.check_ints), ValueError unless
    there is one gain per entry of base.indices and gain(v, u) = -gain(u, v)
    mod p."""

    def __init__(self, base: Graph, p: int, gains: Sequence[int]):
        self.base = base
        self.p = Prime(p)
        check_ints(gains)
        try:
            values = np.asarray(gains, dtype=np.int64)
        except OverflowError:
            values = np.array([int(g) % self.p for g in gains], dtype=np.int64)
        if values.shape != base.indices.shape:
            raise ValueError("gains must hold one gain per neighbour entry")
        self.gains = values % self.p
        self.gains.flags.writeable = False
        tails, heads = base.tails(), base.indices
        # Sorted by (head, tail), the arcs are the reverses of the row order's.
        reverse = np.argsort(heads * base.n + tails, kind="stable")
        bad = np.flatnonzero((self.gains + self.gains[reverse]) % self.p)
        if bad.size:
            raise ValueError(f"inconsistent gain at arc ({tails[bad[0]]},{heads[bad[0]]})")

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tails, heads and gains of every arc in row order, as int64 arrays."""
        return self.base.tails(), self.base.indices, self.gains

    def gain(self, u: int, v: int) -> int:
        """The gain of the arc u -> v; TypeError for a vertex that is not an
        integer, ValueError for one out of range or when uv is not an edge."""
        u, v = self.base._vertex(u), self.base._vertex(v)
        row = self.base.neighbors(u)
        if v not in row:
            raise ValueError(f"({u},{v}) is not an arc")
        return int(self.gains[row.index(v) + self.base.indptr[u]])

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Canonical arcs (u, v, gain) with u < v, ascending."""
        return zip(*(array.tolist() for array in self.arc_table().T))

    def arc_table(self) -> np.ndarray:
        """The canonical arcs as rows (u, v, gain) of an int64 array."""
        tails, heads, values = self.arc_arrays()
        up = tails < heads
        return np.column_stack((tails[up], heads[up], values[up]))

    def restrict(self, vertices: Sequence[int]) -> "GainGraph":
        """Induced gain graph on the given vertices, relabeled in list order."""
        sub, positions = self.base.induced(vertices)
        return GainGraph(sub, self.p, self.gains[positions])


def cover_from_gain(gg: GainGraph) -> CoveringMap:
    """p-fold cover on V x Z_p: (u, j) ~ (v, j + gain(u, v)); ids are u*p + j,
    so row u*p + j, made from row u, ascends as row u does. The rows are
    made _BLOCK // p base rows at a time, about _BLOCK rows of the cover,
    so no temporary spans them all."""
    p, base = gg.p, gg.base
    fiber_map = np.arange(base.n).repeat(p)
    degrees = np.diff(base.indptr)[fiber_map]
    indices = np.empty(p * len(base.indices), np.int64)
    step = _BLOCK // p
    for start in range(0, base.n, step):
        rows = np.arange(start * p, min(start + step, base.n) * p)
        positions = base.row_entries(fiber_map[rows])
        shifts = np.repeat(rows % p, degrees[rows])
        # The rows before row start * p are p copies of each base row before start.
        first = p * base.indptr[start]
        indices[first:first + len(positions)] = (base.indices[positions] * p
                                                 + (shifts + gg.gains[positions]) % p)
    return CoveringMap(Graph._from_degrees(degrees, indices), base, fiber_map)


class SignedMatrix:
    """Symmetric matrix with entries in {-1, 0, +1} and zero diagonal, as int8."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        m = np.asarray(entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("signed matrix must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("signed matrix must be symmetric")
        if not np.all(np.isin(m, (-1, 0, 1))):
            raise ValueError("entries must be in {-1, 0, 1}")
        if np.any(np.diag(m) != 0):
            raise ValueError("diagonal must be zero")
        self.entries = m.astype(np.int8)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def support_graph(self) -> Graph:
        _, heads = np.nonzero(self.entries)
        return Graph._from_degrees(np.count_nonzero(self.entries, axis=1), heads)


def cohen_tits_signing(d: int) -> SignedMatrix:
    """The recursive signing of the d-cube: two oppositely signed copies of
    the previous signing joined by an all-positive perfect matching."""
    d = operator.index(d)
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
    # The nonzero entries in row-major order are the support graph's arcs.
    gains = sm.entries[sm.entries != 0] == -1
    return cover_from_gain(GainGraph(sm.support_graph(), 2, gains))
