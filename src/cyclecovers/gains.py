"""Gain graphs over Z_p and the covers they define.

A gain graph labels each ordered adjacent pair with a residue, antisymmetric
under swapping the endpoints. The cover places p copies of each vertex and
joins (u, j) to (v, j + gain(u, v)) along each arc.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional

from .covers import CoveringMap, connection_set
from .graphs import Graph, cayley, rooted_cycles
from .groups import SIGNS, extraspecial_cocycle
from .modular import Prime


class GainGraph:
    """A base graph with an antisymmetric arc labeling into Z_p."""

    def __init__(self, base: Graph, p: int, arc_gains: dict[tuple[int, int], int]):
        self.base = base
        self.p = Prime(p)
        gains: dict[tuple[int, int], int] = {}
        for (u, v), g in arc_gains.items():
            if not base.has_edge(u, v):
                raise ValueError(f"gain assigned to non-edge ({u},{v})")
            g = int(g) % self.p
            for key, val in (((u, v), g), ((v, u), (-g) % self.p)):
                if key in gains and gains[key] != val:
                    raise ValueError(f"inconsistent gain at arc {key}")
                gains[key] = val
        for u, v in base.edges():
            if (u, v) not in gains:
                raise ValueError(f"edge ({u},{v}) has no gain")
        self._gains = gains

    def gain(self, u: int, v: int) -> int:
        return self._gains[(u, v)]

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Canonical arcs (u, v, gain) with u < v, ascending."""
        for u, v in self.base.edges():
            yield u, v, self._gains[(u, v)]

    def restrict(self, vertices: list[int]) -> "GainGraph":
        """Induced gain graph on the given vertices, relabeled in list order."""
        from .graphs import induced_subgraph

        remap = {v: i for i, v in enumerate(vertices)}
        sub = induced_subgraph(self.base, vertices)
        gains = {
            (remap[u], remap[v]): g
            for u, v, g in self.arcs()
            if u in remap and v in remap
        }
        return GainGraph(sub, self.p, gains)


def gain_from_cocycle(p: int, d: int, sign: str) -> GainGraph:
    """Label the Cayley form of the 4d-regular cycle power by the cocycle.

    The arc from g to s+g carries the cocycle evaluated at (s, g) for each
    connection vector s; the opposite arc carries the negation. For odd p the
    connection vectors and their negatives are disjoint, so every edge gets
    exactly one defining arc (re-assignments are still checked).
    """
    p = Prime(p)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    steps = list(connection_set(p, d))
    # Vertex ids are the base-p numbers of the vectors, first digit most
    # significant: the order itertools.product lists them in.
    vectors = list(itertools.product(range(p), repeat=2 * d))
    weights = [p ** k for k in reversed(range(2 * d))]
    neg_steps = [tuple((-x) % p for x in s) for s in steps]

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def neg(u):
        return tuple((-a) % p for a in u)

    base = cayley(vectors, add, neg, steps + neg_steps)
    gains: dict[tuple[int, int], int] = {}
    for gid, g in enumerate(vectors):
        for s in steps:
            tid = sum(map(operator.mul, add(s, g), weights))
            val = extraspecial_cocycle(p, sign, (s[:d], s[d:]), (g[:d], g[d:]))
            key = (gid, tid)
            if key in gains and gains[key] != val:
                raise ValueError(f"inconsistent cocycle gain at arc {key}")
            gains[key] = val
    return GainGraph(base, p, gains)


def cover_from_gain(gg: GainGraph) -> CoveringMap:
    """p-fold cover on V x Z_p: (u, j) ~ (v, j + gain(u, v)); ids are u*p + j."""
    p = gg.p
    edges = []
    for u, v, g in gg.arcs():
        for j in range(p):
            edges.append((u * p + j, v * p + (j + g) % p))
    total = Graph(gg.base.n * p, edges)
    gamma = tuple(vid // p for vid in range(total.n))
    return CoveringMap(total, gg.base, gamma)


def directed_cycles(base: Graph, length: int,
                    root: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Each simple cycle of the given length once, in the orientation with
    the smaller second vertex: rooted at its minimum vertex, or with root
    given, only the cycles through root, rooted there."""
    return (path for path in rooted_cycles(base, length, root) if path[1] < path[-1])


def cycle_gain_sums(gg: GainGraph, length: int,
                    root: Optional[int] = None) -> list[tuple[tuple[int, ...], int]]:
    """Directed gain sums around every simple cycle of the given length, or
    with root given, around every one through root."""
    out = []
    for cyc in directed_cycles(gg.base, length, root):
        total = 0
        for i in range(length):
            total += gg.gain(cyc[i], cyc[(i + 1) % length])
        out.append((cyc, total % gg.p))
    return out


def all_cycle_sums_nonzero(gg: GainGraph, length: int, root: Optional[int] = None
                           ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether every simple cycle of the given length has a nonzero gain sum,
    with the first zero-sum cycle as witness. With root given, only cycles
    through root are summed. On a gain graph from gain_from_cocycle, root=0
    decides the same and gives the same witness: translation changes gains
    by a coboundary, so every cycle has the gain sum of a cycle through 0,
    and the search over all roots starts at 0 (README, "Gain cycle sums
    from one vertex")."""
    for cyc, s in cycle_gain_sums(gg, length, root):
        if s == 0:
            return False, cyc
    return True, None
