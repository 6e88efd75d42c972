"""Gain graphs over Z_p and the covers they define.

A gain graph labels each ordered adjacent pair with a residue, antisymmetric
under swapping the endpoints. The cover places p copies of each vertex and
joins (u, j) to (v, j + gain(u, v)) along each arc.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .covers import CoveringMap, connection_set
from .graphs import Graph, VertexCodec, cayley, rooted_cycles
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
    codec = VertexCodec((p,) * (2 * d))
    vectors = [codec.decode(i) for i in range(codec.size)]
    neg_steps = [tuple((-x) % p for x in s) for s in steps]

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def neg(u):
        return tuple((-a) % p for a in u)

    base = cayley(vectors, add, neg, steps + neg_steps)
    gains: dict[tuple[int, int], int] = {}
    for gid, g in enumerate(vectors):
        for s in steps:
            tid = codec.encode(add(s, g))
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


def directed_cycles(base: Graph, length: int) -> Iterator[tuple[int, ...]]:
    """Each simple cycle of the given length once, rooted at its minimum
    vertex, in the orientation with the smaller second vertex."""
    return (path for path in rooted_cycles(base, length) if path[1] < path[-1])


def cycle_gain_sums(gg: GainGraph, length: int) -> list[tuple[tuple[int, ...], int]]:
    """Directed gain sums around every simple cycle of the given length."""
    out = []
    for cyc in directed_cycles(gg.base, length):
        total = 0
        for i in range(length):
            total += gg.gain(cyc[i], cyc[(i + 1) % length])
        out.append((cyc, total % gg.p))
    return out


def all_cycle_sums_nonzero(gg: GainGraph, length: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    for cyc, s in cycle_gain_sums(gg, length):
        if s == 0:
            return False, cyc
    return True, None


def gains_along(gg: GainGraph, step: tuple[int, ...], codec: VertexCodec) -> set[int]:
    """Distinct gains over the arcs (g, step + g) for all base vertices g."""
    p = gg.p
    out = set()
    for gid in range(gg.base.n):
        g = codec.decode(gid)
        tid = codec.encode(tuple((a + b) % p for a, b in zip(step, g)))
        out.add(gg.gain(gid, tid))
    return out
