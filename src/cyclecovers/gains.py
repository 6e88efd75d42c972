"""The cocycle gain graph of the extraspecial covers, its lift, and gain
sums around its short cycles.

GainGraph and its p-fold lift cover_from_gain are defined in covers, whose
signed double cover is a lift at p = 2, and are imported from here as well.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .covers import (  # noqa: F401
    CoveringMap,
    GainGraph,
    _extraspecial_prime,
    connection_set,
    cover_from_gain,
    standard_ids,
)
from .graphs import Graph, cycle_power, rooted_cycles
from .groups import SIGNS, extraspecial_cocycle
from .modular import Prime


def gain_from_cocycle(p: int, d: int, sign: str) -> GainGraph:
    """Label the Cayley form of the 4d-regular cycle power by the cocycle.

    The arc from g to s+g carries the cocycle evaluated at (s, g) for each
    connection vector s; the opposite arc carries the negation. Vertex ids
    are the base-p numbers of the vectors, first digit most significant, so
    each s takes one array sum over the digit columns of all ids and one
    cocycle call on those columns; the inverse permutation of the heads of s
    gives the heads of -s and the arcs whose negated gains they carry. For
    odd p the connection vectors and their negatives are disjoint, so no
    sorted row repeats a vertex or holds its own, and the rows are checked.
    """
    p = Prime(p)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    n = p ** (2 * d)
    weights = [p ** k for k in reversed(range(2 * d))]
    ids = np.arange(n)
    columns = tuple(ids // w % p for w in weights)
    heads, values = [], []
    for s in connection_set(p, d):
        ahead = sum((column + x) % p * w for column, x, w in zip(columns, s, weights))
        gains = extraspecial_cocycle(p, sign, (s[:d], s[d:]), (columns[:d], columns[d:]))
        behind = np.empty_like(ahead)
        behind[ahead] = ids
        heads += [ahead, behind]
        values += [gains, -gains[behind] % p]
    heads, values = np.column_stack(heads), np.column_stack(values)
    # Stable: the sort GainGraph runs, so numpy maps one sort kernel.
    order = np.argsort(heads, axis=1, kind="stable")
    heads = np.take_along_axis(heads, order, axis=1)
    steps = np.diff(heads, axis=1)
    if np.count_nonzero(steps) < steps.size or np.count_nonzero(heads - ids[:, None]) < heads.size:
        raise ValueError("connection vectors give repeated arcs")
    return GainGraph(Graph._from_table(heads), p, np.take_along_axis(values, order, axis=1).ravel())


def cocycle_cover(p: int, d: int, sign: str) -> CoveringMap:
    """The cover build_cover makes, id for id, built as the lift of the
    cocycle gain graph with no group products (README, "The extraspecial
    cover as a cocycle lift"): lift vertex u*p + z is the element whose
    first 2d coordinates have base id u and whose central coordinate is z."""
    p = _extraspecial_prime(p, d, sign)
    total = cover_from_gain(gain_from_cocycle(p, d, sign)).total
    return CoveringMap(total, cycle_power(p, 2 * d), np.repeat(standard_ids(p, d), p))


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
