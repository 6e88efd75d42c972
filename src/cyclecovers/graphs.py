"""Simple undirected graphs with contiguous integer ids, and the builders
and short-cycle scans the cover constructions rely on."""

from __future__ import annotations

import operator
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .reporting import check_ids, check_ints, digit_table, id_text

# Rows per block when rows come from a row function or are lifted from a
# gain graph (_BLOCK // p base rows), and lines per write when pairs are
# written as text: a block's rows, edge pairs and text take a few hundred kB.
_BLOCK = 1024

# A row function maps a block of int64 ids to a 2-D array: row i holds the
# neighbours of ids[i], ascending, with the guarantees of Graph._from_degrees.
RowFunction = Callable[[np.ndarray], np.ndarray]


class Graph:
    """Immutable simple graph on vertex ids 0..n-1 in CSR form: row v,
    indices[indptr[v]:indptr[v + 1]], holds v's neighbours in ascending
    order. Both arrays are int64 and read-only. The constructor raises
    TypeError for an endpoint that is not an integer (reporting.check_ints)
    and ValueError for a self-loop or an id outside 0..n-1."""

    __slots__ = ("indptr", "indices")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        ends = list(chain.from_iterable(edges))
        check_ints(ends)
        pairs = np.fromiter(ends, np.int64, len(ends)).reshape(-1, 2)
        tails, heads = pairs[:, 0], pairs[:, 1]
        bad = (tails == heads) | (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
        if bad.any():
            u, v = pairs[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        keys = np.unique(np.concatenate((tails * n + heads, heads * n + tails)))
        if n:
            self._set(np.bincount(keys // n, minlength=n), keys % n)
        else:
            self._set(keys, keys)

    def _set(self, degrees: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    @classmethod
    def _from_degrees(cls, degrees: np.ndarray, indices: np.ndarray) -> "Graph":
        """Graph whose rows, of the given lengths, fill indices in order.
        The caller guarantees what __init__ ensures: each row ascending,
        without repeats or the row's own vertex, in range, and v in row u
        exactly when u is in row v."""
        g = cls.__new__(cls)
        g._set(degrees, indices)
        return g

    @classmethod
    def _from_table(cls, table: np.ndarray) -> "Graph":
        """Regular graph whose row v is row v of the 2-D table, with the
        guarantees of _from_degrees."""
        n, k = table.shape
        return cls._from_degrees(np.full(n, k), table.ravel())

    @classmethod
    def _from_id_arithmetic(cls, n: int, rows: RowFunction) -> "Graph":
        """Regular graph on n vertices with the row function rows."""
        return cls._from_table(row_table(n, rows))

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def _vertex(self, v: int) -> int:
        """v as an int; TypeError for a non-integer, ValueError for an id
        outside 0..n-1, which numpy would wrap or reject."""
        v = operator.index(v)
        if not 0 <= v < len(self.indptr) - 1:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        v = self._vertex(v)
        return tuple(self.indices[self.indptr[v]:self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return self._vertex(v) in self.neighbors(u)

    def tails(self) -> np.ndarray:
        """The row of each entry of indices: with indices, every arc u -> v
        in row order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def row_entries(self, rows: np.ndarray) -> np.ndarray:
        """Positions in indices of the entries of the given rows, row after
        row in the order given."""
        starts = self.indptr[rows]
        counts = self.indptr[np.asarray(rows) + 1] - starts
        return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges (u, v) with u < v, ascending lexicographic, as two
        int64 arrays."""
        tails = self.tails()
        up = self.indices > tails
        return tails[up], self.indices[up]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, ascending lexicographic."""
        tails, heads = self.edge_arrays()
        return zip(tails.tolist(), heads.tolist())

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """The subgraph induced on the given vertices, relabeled in list
        order, and for each entry of its indices the position of the same
        arc in this graph's indices. TypeError for a vertex that is not an
        integer (reporting.check_ints)."""
        check_ints(vertices)
        kept = np.asarray(vertices, dtype=np.int64).reshape(-1)
        for v in (kept.min(), kept.max()) if len(kept) else ():
            self._vertex(v)  # every id is in range when these two are
        remap = np.full(self.n, -1)
        remap[kept] = np.arange(len(kept))
        if np.count_nonzero(remap >= 0) != len(kept):
            raise ValueError("vertex list contains repeats")
        positions = self.row_entries(kept)
        heads = remap[self.indices[positions]]
        tails = np.repeat(np.arange(len(kept)), self.indptr[kept + 1] - self.indptr[kept])
        inside = heads >= 0
        positions, tails, heads = positions[inside], tails[inside], heads[inside]
        order = np.argsort(tails * len(kept) + heads, kind="stable")
        degrees = np.bincount(tails, minlength=len(kept))
        return Graph._from_degrees(degrees, heads[order]), positions[order]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def write_edge_list(self, write: Callable[[str], object]) -> None:
        """Write first the line "n m", then one "u v" line per edge, u < v,
        ascending, through write."""
        write(f"{self.n} {self.m}\n")
        write_pairs([np.column_stack(self.edge_arrays())], self.n, write)

    def to_edge_list_text(self) -> str:
        """The edge list write_edge_list writes, as one str."""
        chunks: list[str] = []
        self.write_edge_list(chunks.append)
        return "".join(chunks)


def write_pairs(blocks: Iterable[np.ndarray], n: int, write: Callable[[str], object]) -> int:
    """Write one "l r" line per row of each 2-column array of ids 0..n-1
    through write, _BLOCK lines per call, their digits gathered from one
    digit_table(n) (reporting.id_text), and return the number of lines;
    ValueError for an id out of range."""
    table = digit_table(n)
    lines = 0
    for pairs in blocks:
        for start in range(0, len(pairs), _BLOCK):
            write(id_text(table, pairs[start:start + _BLOCK], ("", " ", "\n")))
        lines += len(pairs)
    return lines


def id_blocks(n: int) -> Iterator[np.ndarray]:
    """The ids 0..n-1 as int64 arrays of _BLOCK consecutive ids, the last shorter."""
    return (np.arange(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def row_table(n: int, rows: RowFunction) -> np.ndarray:
    """The rows of ids 0..n-1 as one (n, degree) int64 table, filled one
    block of ids at a time, so no intermediate array spans them all."""
    table = None
    for ids in id_blocks(n):
        block = rows(ids)
        if table is None:
            table = np.empty((n, block.shape[1]), np.int64)
        table[ids[0]:ids[0] + len(ids)] = block
    return table


def edge_blocks(n: int, rows: RowFunction) -> Iterator[np.ndarray]:
    """The edges (u, v), u < v, of the regular graph on n vertices with the
    row function rows, ascending, as one 2-column int64 array per block
    of ids: the edges Graph.edge_arrays gives, with no array of them all.
    ValueError for a head outside 0..n-1, which the edges would drop."""
    for ids in id_blocks(n):
        heads = rows(ids)
        check_ids(heads, n)
        up = heads > ids[:, None]
        yield np.column_stack((np.broadcast_to(ids[:, None], heads.shape)[up], heads[up]))


def write_edge_rows(n: int, rows: RowFunction, write: Callable[[str], object]) -> None:
    """Write the edge list that Graph.write_edge_list writes for
    Graph._from_id_arithmetic(n, rows), from one block of rows at a time.
    ValueError after the last line when the rows give other than the m
    edges of the header, as rows that are not symmetric do."""
    m = n * rows(np.zeros(1, np.int64)).shape[1] // 2
    write(f"{n} {m}\n")
    lines = write_pairs(edge_blocks(n, rows), n, write)
    if lines != m:
        raise ValueError(f"rows give {lines} edges, not the {m} of the header")


def cayley(n: int, mul: Callable[[int, int], int], inv: Callable[[int], int],
           connection: Sequence[int]) -> Graph:
    """Cayley graph of a group on the ids 0..n-1: {g,h} an edge when g h^-1
    is in the connection set. The connection set must be inverse closed and
    must not contain the identity; a repeated element counts once. Row g
    holds the products s g, so mul runs once per vertex and connection
    element, and once more for the identity. ValueError for a product
    outside 0..n-1 (reporting.check_ids)."""
    if not connection:
        return Graph(n, [])
    conn = list(dict.fromkeys(connection))
    identity = mul(inv(conn[0]), conn[0])
    conn_set = set(conn)
    if identity in conn_set:
        raise ValueError("connection set contains the identity")
    for s in conn:
        if inv(s) not in conn_set:
            raise ValueError(f"connection set not closed under inverse at {s!r}")
    # One column of neighbour ids per connection element: s g = s' g only
    # when s = s', and h = s g gives g = s^-1 h, so each row is free of
    # repeats and the rows are symmetric.
    table = np.empty((n, len(conn)), np.int64)
    for j, s in enumerate(conn):
        table[:, j] = np.fromiter(map(mul, repeat(s), range(n)), np.int64, n)
    check_ids(table, n)
    table.sort(axis=1)
    return Graph._from_table(table)


def cycle_graph(k: int) -> Graph:
    """The k-cycle on 0..k-1 in cyclic order; ValueError for k < 3."""
    return cycle_power(k, 1)


def cartesian_product(x: Graph, y: Graph) -> Graph:
    """Vertex (u, v) gets id u * y.n + v."""
    ny = y.n
    (xu, xv), (yu, yv) = x.edge_arrays(), y.edge_arrays()
    firsts, seconds = np.arange(x.n)[:, None] * ny, np.arange(ny)
    tails = np.concatenate(((firsts + yu).ravel(), (xu[:, None] * ny + seconds).ravel()))
    heads = np.concatenate(((firsts + yv).ravel(), (xv[:, None] * ny + seconds).ravel()))
    return Graph(x.n * ny, np.column_stack((tails, heads)).tolist())


def cartesian_power(x: Graph, k: int) -> Graph:
    out = x
    for _ in range(k - 1):
        out = cartesian_product(out, x)
    return out


def _nonnegative(value: int, name: str) -> int:
    """value through operator.index; ValueError when it is negative."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def cycle_power_rows(p: int, k: int) -> RowFunction:
    """Row function of the k-th Cartesian power of the p-cycle: ids are the
    base-p numbers of Z_p^k, first digit most significant, and an edge adds
    +-1 mod p to one digit, so the neighbours of v are v +- p^j, wrapped
    within digit j."""
    if p < 3:
        raise ValueError("cycle needs at least 3 vertices")
    weights = p ** np.arange(_nonnegative(k, "k"))

    def rows(v: np.ndarray) -> np.ndarray:
        digits = v[:, None] // weights % p
        up = np.where(digits == p - 1, (1 - p) * weights, weights)
        down = np.where(digits == 0, (p - 1) * weights, -weights)
        return np.sort(np.concatenate((v[:, None] + up, v[:, None] + down), axis=1), axis=1)

    return rows


def cycle_power(p: int, k: int) -> Graph:
    """The graph cartesian_power(cycle_graph(p), k) builds, by rows."""
    k = _nonnegative(k, "k")
    return Graph._from_id_arithmetic(p ** k, cycle_power_rows(p, k))


def hypercube_rows(d: int) -> RowFunction:
    """Row function of the d-cube: vertex ids are the bit strings x_1..x_d,
    x_1 most significant; an edge flips one bit, so the neighbours of v
    are v XOR 2^k."""
    bits = 1 << np.arange(_nonnegative(d, "d"))
    return lambda v: np.sort(v[:, None] ^ bits, axis=1)


def hypercube(d: int) -> Graph:
    """The d-cube, by rows."""
    d = _nonnegative(d, "d")
    return Graph._from_id_arithmetic(1 << d, hypercube_rows(d))


def _roots(g: Graph, root: Optional[int]) -> Iterable[int]:
    """Every vertex when root is None, else root alone, checked by _vertex."""
    if root is None:
        return range(g.n)
    return (g._vertex(root),)


def _bfs(g: Graph, root: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Level-synchronous BFS from root on the CSR arrays. For each level j
    = 0, 1, ... until one is empty, yields the vertices at distance j,
    ascending; their rows, concatenated in that order; the distance of
    each entry, -1 for those at distance j + 1; and those entries sorted,
    with repeats: level j + 1 once per edge into it."""
    depth = np.full(g.n, -1)
    depth[root] = 0
    level = np.array([root])
    j = 0
    while len(level):
        heads = g.indices[g.row_entries(level)]
        depths = depth[heads]
        fresh = np.sort(heads[depths < 0])
        yield level, heads, depths, fresh
        # Drop repeats: np.unique costs a numpy.ma import per process.
        level = np.concatenate((fresh[:1], fresh[1:][fresh[1:] != fresh[:-1]]))
        j += 1
        depth[level] = j


def girth(g: Graph, cap: int = 13, root: Optional[int] = None) -> Optional[int]:
    """Length of a shortest cycle when it is below cap, else None (girth >= cap).

    From each root, the BFS stops at the first level j that closes a walk:
    an edge inside level j closes one of length 2j + 1, a vertex of level
    j + 1 reached from two vertices of level j one of length 2j + 2 (README,
    "Girth by BFS levels"). That length is the minimum of dist(u) + dist(w)
    + 1 over non-tree edges, exact whenever it is < cap. With root given,
    only that root's BFS runs. Its value is invariant under automorphisms,
    so on a vertex-transitive graph, such as a Cayley graph, every root
    gives the same value, which is then the minimum: the girth.
    """
    if cap < 3:
        raise ValueError("cap must be >= 3")
    best = cap
    for r in _roots(g, root):
        # Levels j with 2j + 1 < best, the ones that can close a shorter walk.
        for j, (_, _, depths, fresh) in zip(range(best // 2), _bfs(g, r)):
            if (depths == j).any():
                best = 2 * j + 1
                break
            if 2 * j + 2 < best and (fresh[1:] == fresh[:-1]).any():
                best = 2 * j + 2
                break
        if best == 3:
            break
    return best if best < cap else None


def has_4cycle(g: Graph,
               root: Optional[int] = None) -> tuple[bool, Optional[tuple[int, ...]]]:
    """True when some vertex r lies on a 4-cycle r a x b: a != b neighbours of
    r and x != r in both their rows (README, "4-cycles from the first BFS
    level"). The witness is (r, a, x, b), least x, then least a < b. With
    root given, only r = root is tried, which decides on a vertex-transitive graph."""
    n = g.n
    for r in _roots(g, root):
        level = g.indices[g.indptr[r]:g.indptr[r + 1]]
        # x * n + a for each entry x of the row of each a in level.
        keys = np.sort(g.indices[g.row_entries(level)] * n
                       + np.repeat(level, g.indptr[level + 1] - g.indptr[level]))
        xs = keys // n
        # r is in every row of level; any other repeat closes a 4-cycle.
        twice = np.flatnonzero((xs[1:] == xs[:-1]) & (xs[1:] != r))
        if len(twice):
            i = twice[0]
            a, b = (keys[i:i + 2] % n).tolist()
            return True, (r, a, int(xs[i]), b)
    return False, None


def rooted_cycles(g: Graph, length: int,
                  root: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Every simple cycle of this length by rooted DFS, as its path from the
    root, once in each orientation. With root given, the cycles through root;
    without, every vertex roots the cycles whose minimum vertex it is, since
    vertices below it belong to cycles already searched.

    A vertex at position i of a cycle through the root is within min(i,
    length - i) <= length // 2 steps of it, so the DFS steps to w only when
    w's distance from the root, from a BFS truncated at that depth, is at
    most the length - i edges left. Each cut branch holds no cycle, so the
    cycles come in the order of the unpruned DFS."""
    for r in _roots(g, root):
        lowest = r if root is None else 0
        dist, rows = {}, {}
        for j, (level, heads, _, _) in zip(range(length // 2 + 1), _bfs(g, r)):
            vertices, flat = level.tolist(), heads.tolist()
            dist.update(dict.fromkeys(vertices, j))
            ends = (g.indptr[level + 1] - g.indptr[level]).cumsum().tolist()
            rows.update(zip(vertices, map(flat.__getitem__, map(slice, [0] + ends, ends))))
        stack: list[tuple[int, tuple[int, ...]]] = [(r, (r,))]
        while stack:
            u, path = stack.pop()
            if len(path) == length:
                if dist[u] == 1:
                    yield path
                continue
            left = length - len(path)
            for w in rows[u]:
                if w < lowest or dist.get(w, length) > left or w in path:
                    continue
                stack.append((w, path + (w,)))


def has_cycle_of_length(g: Graph, length: int,
                        root: Optional[int] = None) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact-length simple cycle search; the witness is the first cycle of
    rooted_cycles. With root given, only cycles through root are searched:
    on a vertex-transitive graph, such as a Cayley graph, a cycle of this
    length exists exactly when one passes through any chosen vertex.
    Intended for length <= 13 and small degrees."""
    if not 3 <= length <= 13:
        raise ValueError("cycle length must be between 3 and 13")
    path = next(rooted_cycles(g, length, root), None)
    return path is not None, path
