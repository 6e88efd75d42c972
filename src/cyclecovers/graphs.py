"""Simple undirected graphs with contiguous integer ids, and the builders
and short-cycle scans the cover constructions rely on."""

from __future__ import annotations

import collections
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

# Vertex ids per block when rows are computed from id arithmetic.
_ROW_BLOCK = 4096


class Graph:
    """Immutable simple graph: vertex ids 0..n-1, sorted neighbor tuples."""

    __slots__ = ("_adj",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[int, ...]]) -> "Graph":
        """Graph with the given neighbor rows. The caller guarantees what
        __init__ checks: each row sorted, without repeats or the row's own
        vertex, in range, and v in row u exactly when u is in row v."""
        g = cls.__new__(cls)
        g._adj = tuple(rows)
        return g

    @classmethod
    def _from_id_arithmetic(cls, n: int,
                            neighbours: Callable[[np.ndarray], np.ndarray]) -> "Graph":
        """Graph on n vertices whose row v holds, sorted, row i of
        neighbours(ids) where ids[i] = v: neighbours maps an int64 array of
        ids to a 2-D array, one row of neighbour ids per id. The caller
        guarantees what _from_rows requires of the sorted rows. Rows are made
        one block of ids at a time, so no table of all rows exists, and they
        share one int object per vertex id."""
        shared = np.array(range(n), dtype=object)
        blocks = (shared[np.sort(neighbours(np.arange(start, min(start + _ROW_BLOCK, n))), axis=1)]
                  for start in range(0, n, _ROW_BLOCK))
        return cls._from_rows(map(tuple, chain.from_iterable(block.tolist() for block in blocks)))

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self._adj) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        nb = self._adj[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, ascending lexicographic."""
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_edge_list_text(self) -> str:
        """First line "n m", then one "u v" line per edge, u < v, ascending."""
        rows = [f"{self.n} {self.m}"]
        for u, nb in enumerate(self._adj):
            upper = nb[bisect_right(nb, u):]
            if upper:
                # The lines of row u as one string: "u v1\nu v2\n...".
                sep = f"\n{u} "
                rows.append(sep[1:] + sep.join(map(str, upper)))
        return "\n".join(rows) + "\n"


def cayley(carrier: Sequence, mul: Callable, inv: Callable, connection: Sequence) -> Graph:
    """Cayley graph: vertices in carrier order, {g,h} an edge when g h^-1 is in
    the connection set. The connection set must be inverse closed and must not
    contain the identity; a repeated element counts once. Row g holds the
    products s g, so mul runs once per vertex and connection element, and
    once more for the identity."""
    index = {g: i for i, g in enumerate(carrier)}
    if len(index) != len(carrier):
        raise ValueError("carrier contains repeated elements")
    if not connection:
        return Graph(len(carrier), [])
    conn = list(dict.fromkeys(connection))
    identity = mul(inv(conn[0]), conn[0])
    conn_set = set(conn)
    if identity in conn_set:
        raise ValueError("connection set contains the identity")
    for s in conn:
        if inv(s) not in conn_set:
            raise ValueError(f"connection set not closed under inverse at {s!r}")
    # One column of neighbor ids per connection element, read row by row:
    # s g = s' g only when s = s', and h = s g gives g = s^-1 h, so each row
    # is free of repeats and the rows are symmetric.
    columns = [map(index.__getitem__, map(mul, repeat(s), carrier)) for s in conn]
    return Graph._from_rows(tuple(sorted(row)) for row in zip(*columns))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def cartesian_product(x: Graph, y: Graph) -> Graph:
    """Vertex (u, v) gets id u * y.n + v."""
    ny = y.n
    return Graph._from_rows(
        tuple(sorted([u * ny + w for w in yv] + [w * ny + v for w in xu]))
        for u, xu in enumerate(x._adj) for v, yv in enumerate(y._adj))


def cartesian_power(x: Graph, k: int) -> Graph:
    out = x
    for _ in range(k - 1):
        out = cartesian_product(out, x)
    return out


def hypercube(d: int) -> Graph:
    """Vertex ids are the bit strings x_1..x_d, x_1 most significant; an edge
    flips one bit, so the neighbours of v are v XOR 2^k."""
    return Graph._from_id_arithmetic(1 << d, lambda v: v[:, None] ^ (1 << np.arange(d)))


def girth(g: Graph, cap: int = 13, root: Optional[int] = None) -> Optional[int]:
    """Length of a shortest cycle when it is below cap, else None (girth >= cap).

    Per-root BFS truncated at depth ceil(cap/2); the minimum over roots of
    dist(u) + dist(w) + 1 over non-tree edges is exact whenever it is < cap.
    With root given, only that root's BFS runs. Its value is invariant under
    automorphisms, so on a vertex-transitive graph, such as a Cayley graph,
    every root gives the same value, which is then the minimum: the girth.
    """
    if cap < 3:
        raise ValueError("cap must be >= 3")
    best: Optional[int] = None
    max_depth = (cap + 1) // 2
    for r in range(g.n) if root is None else (root,):
        dist = {r: 0}
        parent = {r: -1}
        queue = collections.deque([r])
        while queue:
            u = queue.popleft()
            if dist[u] >= max_depth:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    c = dist[u] + dist[w] + 1
                    if best is None or c < best:
                        best = c
        if best == 3:
            break
    if best is not None and best < cap:
        return best
    return None


def has_4cycle(g: Graph,
               root: Optional[int] = None) -> tuple[bool, Optional[tuple[int, ...]]]:
    """True when some vertex pair has two common neighbors; witness is the
    4-cycle (v, u, w, u') in cyclic order. With root given, only 4-cycles
    through root are searched, as has_cycle_of_length does, and the witness
    starts at root; on a vertex-transitive graph that decides the same."""
    if root is not None:
        return _first(rooted_cycles(g, 4, root))
    seen: dict[tuple[int, int], int] = {}
    for u in range(g.n):
        nb = g.neighbors(u)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                pair = (nb[i], nb[j])
                other = seen.get(pair)
                if other is not None and other != u:
                    return True, (nb[i], other, nb[j], u)
                seen[pair] = u
    return False, None


def rooted_cycles(g: Graph, length: int,
                  root: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Every simple cycle of this length by rooted DFS, as its path from the
    root, once in each orientation. With root given, the cycles through root;
    without, every vertex roots the cycles whose minimum vertex it is, since
    vertices below it belong to cycles already searched."""
    for r in range(g.n) if root is None else (root,):
        lowest = r if root is None else 0
        stack: list[tuple[int, tuple[int, ...]]] = [(r, (r,))]
        while stack:
            u, path = stack.pop()
            if len(path) == length:
                if g.has_edge(u, r):
                    yield path
                continue
            for w in g.neighbors(u):
                if w < lowest or w in path:
                    continue
                stack.append((w, path + (w,)))


def _first(paths: Iterator[tuple[int, ...]]) -> tuple[bool, Optional[tuple[int, ...]]]:
    path = next(paths, None)
    return path is not None, path


def has_cycle_of_length(g: Graph, length: int,
                        root: Optional[int] = None) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact-length simple cycle search; the witness is the first cycle of
    rooted_cycles. With root given, only cycles through root are searched:
    on a vertex-transitive graph, such as a Cayley graph, a cycle of this
    length exists exactly when one passes through any chosen vertex.
    Intended for length <= 13 and small degrees."""
    if not 3 <= length <= 13:
        raise ValueError("cycle length must be between 3 and 13")
    return _first(rooted_cycles(g, length, root))
