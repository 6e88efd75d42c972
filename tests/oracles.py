"""Brute-force reference implementations the tests check against.

Everything here is deliberately independent of the library's own algorithms:
cycle facts come from exhaustive DFS enumeration, eigenvalues from exact
integer characteristic polynomials root-found at high precision, graphs
from edge lists by their definitions, covering maps checked edge by edge,
and stable JSON text from the standard library's encoder.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
from mpmath import mp, polyroots

from cyclecovers.covers import (
    CoveringMap,
    CoverVerificationError,
    _extraspecial_prime,
    connection_set,
    cover_from_gain,
    lifted_connection,
    standard_ids,
)
from cyclecovers.gains import gain_from_cocycle
from cyclecovers.graphs import Graph, cycle_power
from cyclecovers.groups import ExtraspecialGroup
from cyclecovers.reporting import round_sig, write_stable


class TupleGraph:
    """The graph the library held before its CSR form: one sorted tuple of
    neighbours per vertex, built from a set per vertex."""

    def __init__(self, n, edges):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(tuple(sorted(s)) for s in adj)

    @property
    def n(self):
        return len(self._adj)

    @property
    def m(self):
        return sum(len(nb) for nb in self._adj) // 2

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        nb = self._adj[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def edges(self):
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other):
        return isinstance(other, TupleGraph) and self._adj == other._adj

    def __hash__(self):
        return hash(self._adj)

    def to_edge_list_text(self):
        rows = [f"{self.n} {self.m}"]
        for u, nb in enumerate(self._adj):
            rows += [f"{u} {v}" for v in nb[bisect_right(nb, u):]]
        return "\n".join(rows) + "\n"


def rooted_cycles_unpruned(graph, length, root=None):
    """The rooted DFS of graphs.rooted_cycles without its distance cut:
    every path of length vertices from the root, over vertices not below
    the lowest allowed one, that closes back to the root."""
    for r in range(graph.n) if root is None else (root,):
        lowest = r if root is None else 0
        stack = [(r, (r,))]
        while stack:
            u, path = stack.pop()
            if len(path) == length:
                if graph.has_edge(u, r):
                    yield path
                continue
            for w in graph.neighbors(u):
                if w < lowest or w in path:
                    continue
                stack.append((w, path + (w,)))


def enumerate_simple_cycles(graph):
    """Every simple cycle once, as a vertex tuple rooted at its minimum
    vertex with the smaller second vertex. Exhaustive DFS; small graphs only."""
    cycles = []
    for root in range(graph.n):
        stack = [(root, (root,))]
        while stack:
            u, path = stack.pop()
            for w in graph.neighbors(u):
                if w == root and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(path)
                    continue
                if w <= root or w in path:
                    continue
                stack.append((w, path + (w,)))
    return cycles


def brute_girth(graph):
    """Minimum simple-cycle length by exhaustive DFS with best-so-far pruning;
    None when the graph is acyclic."""
    best = None
    for root in range(graph.n):
        stack = [(root, (root,))]
        while stack:
            u, path = stack.pop()
            if best is not None and len(path) >= best:
                continue
            for w in graph.neighbors(u):
                if w == root and len(path) >= 3:
                    if best is None or len(path) < best:
                        best = len(path)
                    continue
                if w <= root or w in path:
                    continue
                stack.append((w, path + (w,)))
    return best


def girth_by_parent_bfs(graph, cap=13, root=None):
    """graphs.girth as a queue BFS with parent and distance dicts: per root,
    truncated at depth ceil(cap/2), the minimum of dist(u) + dist(w) + 1
    over the non-tree edges it sees, kept when it is below cap."""
    best = None
    max_depth = (cap + 1) // 2
    for r in range(graph.n) if root is None else (root,):
        dist = {r: 0}
        parent = {r: -1}
        queue = collections.deque([r])
        while queue:
            u = queue.popleft()
            if dist[u] >= max_depth:
                continue
            for w in graph.neighbors(u):
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


def brute_cycle_lengths(graph) -> set[int]:
    return {len(c) for c in enumerate_simple_cycles(graph)}


def has_4cycle_by_pairs(graph):
    """graphs.has_4cycle without root, as the pair-dict scan it replaced:
    a 4-cycle exists when some vertex pair has two common neighbours; the
    witness (v, u, w, u') is in cyclic order."""
    seen = {}
    for u in range(graph.n):
        nb = graph.neighbors(u)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                pair = (nb[i], nb[j])
                other = seen.get(pair)
                if other is not None and other != u:
                    return True, (nb[i], other, nb[j], u)
                seen[pair] = u
    return False, None


def brute_has_4cycle(graph, root=None) -> bool:
    """Scan all 4-subsets, or those that hold root, for an induced-or-not
    4-cycle."""
    for quad in itertools.combinations(range(graph.n), 4):
        if root is not None and root not in quad:
            continue
        for perm in itertools.permutations(quad[1:]):
            seq = (quad[0],) + perm
            if all(graph.has_edge(seq[i], seq[(i + 1) % 4]) for i in range(4)):
                return True
    return False


def brute_isomorphic(g1, g2) -> bool:
    """Permutation search; only sensible for tiny graphs."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    e2 = g2.edge_set()
    degs1 = sorted(g1.degree(v) for v in range(g1.n))
    degs2 = sorted(g2.degree(v) for v in range(g2.n))
    if degs1 != degs2:
        return False
    edges1 = list(g1.edges())
    for perm in itertools.permutations(range(g1.n)):
        if all(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) in e2 for a, b in edges1
        ):
            return True
    return False


def exact_charpoly(matrix) -> list:
    """Characteristic polynomial coefficients of an integer matrix, exact.

    Faddeev-LeVerrier with rational arithmetic; the divisions come out
    integral for integer input but Fractions keep the loop simple.
    """
    n = len(matrix)
    m = [[Fraction(int(x)) for x in row] for row in matrix]
    coeffs = [Fraction(1)]
    aux = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [
            [sum(m[i][t] * aux[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ck = -sum(prod[i][i] for i in range(n)) / k
        coeffs.append(ck)
        aux = [
            [prod[i][j] + (ck if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def _poly_sqrt(coeffs: list[int]) -> list[int]:
    """Exact square root of a monic even-degree integer polynomial that is a
    perfect square, by matching convolution coefficients."""
    assert coeffs[0] == 1 and (len(coeffs) - 1) % 2 == 0
    n = (len(coeffs) - 1) // 2
    q = [1]
    for k in range(1, n + 1):
        cross = sum(q[i] * q[k - i] for i in range(1, k) if k - i <= len(q) - 1)
        num = coeffs[k] - cross
        assert num % 2 == 0
        q.append(num // 2)
    # The top half of the coefficients must agree as well.
    check = [0] * (2 * n + 1)
    for i, a in enumerate(q):
        for j, b in enumerate(q):
            check[i + j] += a * b
    assert check == coeffs
    return q


def charpoly_eigenvalues(matrix) -> np.ndarray:
    """Ascending real eigenvalues of an integer Hermitian matrix via its exact
    characteristic polynomial and multiprecision root finding.

    Complex input goes through the real block embedding, whose characteristic
    polynomial is the exact square of the true one; the integer square root
    is extracted before root finding.
    """
    m = np.asarray(matrix)
    if np.iscomplexobj(m) and np.any(m.imag):
        re = m.real.astype(np.int64)
        im = m.imag.astype(np.int64)
        assert np.array_equal(m.real, re) and np.array_equal(m.imag, im)
        embedded = np.block([[re, -im], [im, re]])
        squared = _integral(exact_charpoly(embedded.tolist()))
        return np.array(_real_roots(_poly_sqrt(squared)), dtype=float)
    ints = m.astype(np.int64)
    assert np.array_equal(np.asarray(m, dtype=float), ints)
    return np.array(_real_roots(_integral(exact_charpoly(ints.tolist()))), dtype=float)


def _integral(coeffs) -> list[int]:
    for c in coeffs:
        assert c.denominator == 1
    return [int(c) for c in coeffs]


def _real_roots(coeffs: list[int]) -> list:
    with mp.workdps(60):
        roots = polyroots([mp.mpf(c) for c in coeffs], maxsteps=200, extraprec=120)
        for r in roots:
            assert abs(mp.im(r)) < mp.mpf("1e-25")
        return sorted(mp.re(r) for r in roots)


def block_eigenvalues_by_induction(p: int, dims: int, sign: str, k: int, dps: int = 40) -> list:
    """Eigenvalues, ascending, of the sum over S_H of the representation of
    twist k of ExtraspecialGroup(p, d, sign), d = ceil(dims / 2), induced
    from A = {(0, b, z)} with the character omega^{kz}, at dps digits. S_H
    is the lifted connection set without +-c_j for j > dims: all of it on
    even dims, without +-c_{2d} on odd dims. Each product comes from
    ExtraspecialGroup.mul: s (a, 0, 0) = (a + s_a, 0, 0)(0, s_b, w), so
    rho_k(s) sends e_a to omega^{kw} e_{a + s_a}."""
    d = (dims + 1) // 2
    group = ExtraspecialGroup(p, d, sign)
    lifted = lifted_connection(group)
    zero = (0,) * d
    vectors = list(itertools.product(range(p), repeat=d))
    index = {a: i for i, a in enumerate(vectors)}
    with mp.workdps(dps):
        block = mp.zeros(len(vectors))
        for s in lifted[:dims] + lifted[2 * d: 2 * d + dims]:
            for a in vectors:
                image = group.mul(s, group.element(a, zero, 0))
                coset = group.element(image.a, zero, 0)
                assert group.mul(coset, group.element(zero, s.b, image.z)) == image
                block[index[image.a], index[a]] += mp.expjpi(mp.mpf(2 * k * image.z) / p)
        return sorted(mp.eighe(block, eigvals_only=True))


def cayley_by_definition(carrier, mul, inv, connection):
    """Cayley graph from its definition: {g, h} is an edge when g h^-1 lies in
    the connection set, over all pairs of the carrier."""
    conn = set(connection)
    return Graph(len(carrier), [
        (i, j)
        for i, g in enumerate(carrier)
        for j, h in enumerate(carrier)
        if i < j and mul(g, inv(h)) in conn
    ])


def hypercube_by_definition(d):
    """The d-cube edge by edge: ids are the bit strings x_1..x_d, x_1 most
    significant, and u ~ v when they differ in one bit."""
    edges = []
    for u in range(1 << d):
        for i in range(d):
            v = u ^ (1 << (d - 1 - i))
            if u < v:
                edges.append((u, v))
    return Graph(1 << d, edges)


def cartesian_product_by_definition(x, y):
    """(u, v) ~ (u, w) for each edge vw of y and (u, v) ~ (w, v) for each edge
    uw of x; vertex (u, v) has id u * y.n + v."""
    edges = [(u * y.n + v, u * y.n + w) for u in range(x.n) for v, w in y.edges()]
    edges += [(u * y.n + v, w * y.n + v) for u, w in x.edges() for v in range(y.n)]
    return Graph(x.n * y.n, edges)


def torus_by_definition(p, k):
    """The k-th Cartesian power of the p-cycle on digit tuples of Z_p^k, first
    digit most significant: two tuples are adjacent when they differ by +-1
    mod p in exactly one digit."""
    vectors = list(itertools.product(range(p), repeat=k))
    index = {v: i for i, v in enumerate(vectors)}
    edges = []
    for v in vectors:
        for i in range(k):
            w = v[:i] + ((v[i] + 1) % p,) + v[i + 1:]
            edges.append((index[v], index[w]))
    return Graph(len(vectors), edges)


def verify_cover_by_matched_pairs(cm):
    """The covering axioms checked edge by edge: each edge must leave its
    fiber and map onto a base edge, and a dict counting the neighbours of
    each total vertex over each base vertex must read 1 at every neighbour
    of the vertex's image. Returns the fold count; raises
    CoverVerificationError with the first failure."""
    total, base, gamma = cm.total, cm.base, cm.fiber_map
    if len(gamma) != total.n:
        raise CoverVerificationError("map_domain", len(gamma))
    if any(not 0 <= b < base.n for b in gamma):
        raise CoverVerificationError("map_range", next(b for b in gamma if not 0 <= b < base.n))
    fibers = {v: [] for v in range(base.n)}
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
    matched = {}
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


def signed_double_cover_by_edges(sm):
    """Vertex v of the support graph becomes 2v and 2v+1; a positive edge
    lifts to the two parallel edges, a negative edge to the two crossed ones."""
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


def induced_subgraph(g, vertices):
    """Subgraph induced on the given vertices, relabeled 0..len-1 in list
    order, from its edge list."""
    remap = {v: i for i, v in enumerate(vertices)}
    if len(remap) != len(vertices):
        raise ValueError("vertex list contains repeats")
    return Graph(len(vertices), [(remap[u], remap[v]) for u, v in g.edges()
                                 if u in remap and v in remap])


class DictGainGraph:
    """A gain graph held as a dict from each ordered adjacent pair to its
    gain, filled and checked arc by arc from the gains given to either
    direction of each edge."""

    def __init__(self, base, p, arc_gains):
        self.base = base
        self.p = p
        gains = {}
        for (u, v), g in arc_gains.items():
            if not base.has_edge(u, v):
                raise ValueError(f"gain assigned to non-edge ({u},{v})")
            g = int(g) % p
            for key, val in (((u, v), g), ((v, u), (-g) % p)):
                if key in gains and gains[key] != val:
                    raise ValueError(f"inconsistent gain at arc {key}")
                gains[key] = val
        for u, v in base.edges():
            if (u, v) not in gains:
                raise ValueError(f"edge ({u},{v}) has no gain")
        self._gains = gains

    def gain(self, u, v):
        return self._gains[(u, v)]

    def arcs(self):
        """Canonical arcs (u, v, gain) with u < v, ascending."""
        for u, v in self.base.edges():
            yield u, v, self._gains[(u, v)]

    def aligned(self):
        """The gains in a list aligned with the base's indices: row by row,
        one gain per neighbour."""
        return [self.gain(u, v) for u in range(self.base.n) for v in self.base.neighbors(u)]

    def restrict(self, vertices):
        """Induced gain graph on the given vertices, relabeled in list order."""
        remap = {v: i for i, v in enumerate(vertices)}
        gains = {(remap[u], remap[v]): g for u, v, g in self.arcs() if u in remap and v in remap}
        return DictGainGraph(induced_subgraph(self.base, vertices), self.p, gains)


def cover_from_gain_by_edges(gg):
    """The lift edge by edge: (u, j) ~ (v, j + gain(u, v)) with ids u*p + j."""
    p = gg.p
    edges = [(u * p + j, v * p + (j + g) % p) for u, v, g in gg.arcs() for j in range(p)]
    return Graph(gg.base.n * p, edges)


def twisted_adjacency_by_arcs(gg, k):
    """Entry (u, v) is exp(2 pi i k gain(u, v) / p), set arc by arc, with the
    lower triangle the exact conjugate of the upper."""
    m = np.zeros((gg.base.n, gg.base.n), dtype=complex)
    for u, v, g in gg.arcs():
        w = np.exp(2j * math.pi * (k * g % gg.p) / gg.p)
        m[u, v] = w
        m[v, u] = w.conjugate()
    return m


def canonical(obj):
    """The document stable_text writes: floats rounded by round_sig, dict keys
    made str, tuples and 1-D or 2-D integer arrays made lists; TypeError on
    any other type."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.ndim in (1, 2):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_stable_text(obj) -> str:
    """stable_text by the standard library's encoder."""
    return json.dumps(canonical(obj), sort_keys=True, indent=2) + "\n"


def pairs_text_by_format(ids, seps=("", " ", "\n")) -> str:
    """The text reporting.id_text writes for the rows of the 2-D int array
    ids, by one % over a template of each row's separators with "%d"
    between them: with the default separators, one "l r" line per pair,
    as graphs.write_pairs writes them."""
    return "%d".join(seps) * len(ids) % tuple(np.asarray(ids).ravel().tolist())


def convolve_by_definition(f, g, mul, inv) -> list:
    """(f * g)(x) = sum over y of f(y) g(y^-1 x), one product per pair."""
    return [sum(f(y) * g(mul(inv(y), x)) for y in f.carrier) for x in f.carrier]


def upper_form(x, y) -> int:
    """sum over i < j of x_i y_j, mod 2."""
    return sum(x[i] * y[j] for i in range(len(x)) for j in range(i + 1, len(y))) % 2


def minimal_rows_by_scan(table) -> dict:
    """For each degree from 1 to the largest integer bound of a degree-bound
    table, the first row whose integer bound reaches it, by a scan of all
    rows per degree."""
    top = max((row.integer_bound for row in table.rows), default=0)
    return {t: next(row for row in table.rows if row.integer_bound >= t)
            for t in range(1, top + 1)}


def twisted_convolve_by_definition(f, g) -> list:
    """sum over y in Z_2^d of (-1)^form(y, y + x) f(y) g(y + x), per pair."""
    out = []
    for x in f.carrier:
        total = 0
        for y in f.carrier:
            yx = tuple((a + b) % 2 for a, b in zip(y, x))
            total += (-1) ** upper_form(y, yx) * f(y) * g(yx)
        out.append(total)
    return out


def central_lift_by_definition(f, carrier) -> list:
    """(x, t) -> (-1)^t f(x) over a carrier of pairs (x, t)."""
    return [(-1) ** t * f(x) for x, t in carrier]


def standard_ids_by_product(p: int, d: int) -> np.ndarray:
    """standard_ids from the matrix of all coordinate vectors, one row per
    vertex, in itertools.product order."""
    vectors = np.array(connection_set(p, d), dtype=np.int64)
    dim = 2 * d
    x = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
    connection_ids = (x @ vectors % p) @ (p ** np.arange(dim - 1, -1, -1))
    table = np.full(len(x), -1)
    table[connection_ids] = np.arange(len(x))
    return table


def cocycle_cover(p: int, d: int, sign: str) -> CoveringMap:
    """The cover build_cover makes, id for id, as a whole Graph: the lift
    of the cocycle gain graph (README, "The extraspecial cover as a cocycle
    lift"), over cycle_power(p, 2d), with fiber map u*p + z ->
    standard_ids(p, d)[u]."""
    p = _extraspecial_prime(p, d, sign)
    total = cover_from_gain(gain_from_cocycle(p, d, sign)).total
    return CoveringMap(total, cycle_power(p, 2 * d), np.repeat(standard_ids(p, d), p))


def cover_files(cm: CoveringMap, stem: str, fmt: str) -> dict[str, bytes]:
    """The files build writes for the cover, by name, made from the whole
    graphs: Graph.write_edge_list, CoveringMap.write_fiber_map, and
    write_stable on the whole edge arrays and fiber map."""
    if fmt == "edges":
        files = {".total.edges": cm.total.write_edge_list,
                 ".base.edges": cm.base.write_edge_list,
                 ".fibers.txt": cm.write_fiber_map}
    else:
        doc = {"total": {"n": cm.total.n, "edges": np.column_stack(cm.total.edge_arrays())},
               "base": {"n": cm.base.n, "edges": np.column_stack(cm.base.edge_arrays())},
               "fiber_map": np.asarray(cm.fiber_map)}
        files = {".json": lambda write: write_stable(doc, write)}
    out = {}
    for suffix, write_file in files.items():
        chunks: list[str] = []
        write_file(chunks.append)
        out[stem + suffix] = "".join(chunks).encode()
    return out
