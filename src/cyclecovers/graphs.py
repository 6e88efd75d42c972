"""Simple undirected graphs with contiguous integer ids, and the builders
and short-cycle scans the cover constructions rely on."""

from __future__ import annotations

import collections
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence


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

    def is_regular(self) -> Optional[int]:
        degs = {len(nb) for nb in self._adj}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_edge_list_text(self) -> str:
        """First line "n m", then one "u v" line per edge, u < v, ascending."""
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        lines = text.strip().split("\n")
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, line.split())) for line in lines[1: m + 1]]
        return cls(n, edges)  # type: ignore[arg-type]


@dataclass(frozen=True)
class VertexCodec:
    """Bijection between digit tuples and ids; first digit most significant."""

    radices: tuple[int, ...]

    @property
    def size(self) -> int:
        out = 1
        for r in self.radices:
            out *= r
        return out

    def encode(self, digits: Sequence[int]) -> int:
        if len(digits) != len(self.radices):
            raise ValueError("digit count does not match the codec shape")
        v = 0
        for d, r in zip(digits, self.radices):
            if not 0 <= d < r:
                raise ValueError(f"digit {d} out of range for radix {r}")
            v = v * r + d
        return v

    def decode(self, vid: int) -> tuple[int, ...]:
        if not 0 <= vid < self.size:
            raise ValueError(f"id {vid} out of range")
        out = []
        for r in reversed(self.radices):
            out.append(vid % r)
            vid //= r
        return tuple(reversed(out))


def cayley(carrier: Sequence, mul: Callable, inv: Callable, connection: Sequence) -> Graph:
    """Cayley graph: vertices in carrier order, {g,h} an edge when g h^-1 is in
    the connection set. The connection set must be inverse closed and must not
    contain the identity."""
    index = {g: i for i, g in enumerate(carrier)}
    if len(index) != len(carrier):
        raise ValueError("carrier contains repeated elements")
    if not connection:
        return Graph(len(carrier), [])
    conn = list(connection)
    identity = mul(inv(conn[0]), conn[0])
    conn_set = set(conn)
    if identity in conn_set:
        raise ValueError("connection set contains the identity")
    for s in conn:
        if inv(s) not in conn_set:
            raise ValueError(f"connection set not closed under inverse at {s!r}")
    edges = []
    for i, g in enumerate(carrier):
        for s in conn:
            j = index[mul(s, g)]
            if i < j:
                edges.append((i, j))
    return Graph(len(carrier), edges)


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def cartesian_product(x: Graph, y: Graph) -> Graph:
    """Vertex (u, v) gets id u * y.n + v."""
    edges = []
    for u in range(x.n):
        for v, w in y.edges():
            edges.append((u * y.n + v, u * y.n + w))
    for u, w in x.edges():
        for v in range(y.n):
            edges.append((u * y.n + v, w * y.n + v))
    return Graph(x.n * y.n, edges)


def cartesian_power(x: Graph, k: int) -> Graph:
    out = x
    for _ in range(k - 1):
        out = cartesian_product(out, x)
    return out


def hypercube(d: int) -> Graph:
    codec = VertexCodec((2,) * d)
    edges = []
    for u in range(codec.size):
        digits = codec.decode(u)
        for i in range(d):
            flipped = list(digits)
            flipped[i] ^= 1
            v = codec.encode(flipped)
            if u < v:
                edges.append((u, v))
    return Graph(codec.size, edges)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled 0..len-1 in list order."""
    remap = {v: i for i, v in enumerate(vertices)}
    if len(remap) != len(vertices):
        raise ValueError("vertex list contains repeats")
    edges = []
    for v in vertices:
        for w in g.neighbors(v):
            if w in remap and remap[v] < remap[w]:
                edges.append((remap[v], remap[w]))
    return Graph(len(vertices), edges)


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
        return _cycle_through(g, root, 4, 0)
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


def _cycle_through(g: Graph, root: int, length: int,
                   lowest: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Rooted DFS for a simple cycle of this length through root that uses
    no vertex below lowest; the witness is the path from root."""
    stack: list[tuple[int, tuple[int, ...]]] = [(root, (root,))]
    while stack:
        u, path = stack.pop()
        if len(path) == length:
            if g.has_edge(u, root):
                return True, path
            continue
        for w in g.neighbors(u):
            if w < lowest or w in path:
                continue
            stack.append((w, path + (w,)))
    return False, None


def has_cycle_of_length(g: Graph, length: int,
                        root: Optional[int] = None) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact-length simple cycle search by rooted DFS; without root, every
    vertex roots the cycles whose minimum vertex it is, since vertices below
    it belong to cycles already searched. With root given, only cycles
    through root are searched: on a vertex-transitive graph, such as a Cayley
    graph, a cycle of this length exists exactly when one passes through any
    chosen vertex. Intended for length <= 13 and small degrees."""
    if not 3 <= length <= 13:
        raise ValueError("cycle length must be between 3 and 13")
    if root is not None:
        return _cycle_through(g, root, length, 0)
    for r in range(g.n):
        found, path = _cycle_through(g, r, length, r)
        if found:
            return found, path
    return False, None
