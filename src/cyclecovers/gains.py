"""The cocycle gain graph of the extraspecial covers, the row function of
its lift, and gain sums around its short cycles.

GainGraph and its p-fold lift cover_from_gain are defined in covers, whose
signed double cover is a lift at p = 2, and are imported from here as well.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional

import numpy as np

from .covers import (  # noqa: F401
    MAX_COVER_SIZE,
    GainGraph,
    RowCover,
    _extraspecial_prime,
    connection_set,
    cover_from_gain,
    power_exceeds,
    standard_ids,
)
from .graphs import Graph, RowFunction, cycle_power_rows, rooted_cycles, row_table
from .groups import SIGNS, extraspecial_cocycle
from .modular import Prime


def cocycle_arcs(p: int, d: int, sign: str, count: Optional[int] = None) -> RowFunction:
    """Row function of the cocycle gain graph's arcs on any base ids x of
    Z_p^{2d}, a_1 most significant (README, "The extraspecial cover as a
    cocycle lift"): row x holds, sorted, the keys (x + s)*p + kappa(s, x)
    and (x - s)*p - kappa(s, x - s), gains mod p, for the first count
    connection vectors s, all 2d by default; count is read through
    operator.index, and ValueError before any array is made for a count
    outside 1..2d. ValueError for rows that repeat a head or hold x, before
    they are returned."""
    p = Prime(p)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    conn = connection_set(p, d)
    count = len(conn) if count is None else operator.index(count)
    if not 1 <= count <= len(conn):
        raise ValueError(f"count must lie in 1..{len(conn)}, got {count}")
    vectors = np.array(conn[:count])
    steps = np.concatenate((vectors, -vectors)) % p  # s, then -s, as digits
    halves = (vectors[:, :d].T, vectors[:, d:].T)  # coordinate i of every s in row i
    weights = p ** np.arange(2 * d - 1, -1, -1)
    # Digit k of x + step wraps exactly when x_k >= p - step_k, and each
    # wrap takes p * weights[k] off the id x + (id of the step).
    wraps = np.where(steps > 0, p - steps, p)
    offsets = steps @ weights

    def arcs(x: np.ndarray) -> np.ndarray:
        digits = x[:, None] // weights % p
        heads = x[:, None] + offsets - p * ((digits[:, None] >= wraps) @ weights)
        ahead = extraspecial_cocycle(p, sign, halves, (digits.T[:d, :, None], None))
        # kappa(s, x - s) reads the first d digits of x - s.
        lower = (digits[:, None, :d] + steps[len(vectors):, :d]) % p
        behind = extraspecial_cocycle(p, sign, halves, (lower.transpose(2, 0, 1), None))
        keys = np.sort(heads * p + np.concatenate((ahead, -behind), axis=1) % p, axis=1)
        heads = keys // p
        if (heads[:, 1:] == heads[:, :-1]).any() or (heads == x[:, None]).any():
            raise ValueError("connection vectors give repeated arcs")
        return keys

    return arcs


def cocycle_rows(p: int, d: int, sign: str) -> RowFunction:
    """Row function of the extraspecial cover as the cocycle lift: row
    (x, z), vertex u*p + z with u the base-p number of x, is row x of
    cocycle_arcs with z added to each residue mod p. The arcs are made once
    for each x the block spans."""
    arcs = cocycle_arcs(p, d, sign)

    def rows(ids: np.ndarray) -> np.ndarray:
        low = ids.min() // p
        keys = arcs(np.arange(low, ids.max() // p + 1))[ids // p - low]
        return keys - keys % p + (keys + ids[:, None]) % p

    return rows


def extraspecial_row_cover(p: int, d: int, sign: str) -> RowCover:
    """The cover build_cover makes, id for id, by rows: cocycle_rows over
    the base cycle_power(p, 2d), with fiber map u*p + z -> standard_ids(p,
    d)[u]. Checks p, the sign and the cover size before any work."""
    p = _extraspecial_prime(p, d, sign)
    table = standard_ids(p, d)
    return RowCover(p ** (1 + 2 * d), cocycle_rows(p, d, sign), p ** (2 * d),
                    cycle_power_rows(p, 2 * d), lambda v: table[v // p])


def gain_from_cocycle(p: int, d: int, sign: str) -> GainGraph:
    """Label the Cayley form of the 4d-regular cycle power by the cocycle:
    the arc from g to s+g carries the cocycle at (s, g) for each connection
    vector s, the opposite arc its negation. Row x of cocycle_arcs holds
    (x +- s)*p + gain, so its quotients by p are the base row of x and its
    residues the gains. ValueError before any work for a base of more than
    MAX_COVER_SIZE vertices."""
    if power_exceeds(p, 2 * d, MAX_COVER_SIZE):
        raise ValueError(f"base would exceed {MAX_COVER_SIZE} vertices")
    table = row_table(p ** (2 * d), cocycle_arcs(p, d, sign))
    return GainGraph(Graph._from_table(table // p), p, (table % p).ravel())


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
