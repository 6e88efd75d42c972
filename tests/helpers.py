"""Shared builders and exhaustive algebra checks used by the unit and
acceptance tests. Covers are cached so repeated criteria reuse one build."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from cyclecovers.cli import _gain_graph_for_dims
from cyclecovers.covers import CoveringMap, build_cover, heisenberg_cover
from cyclecovers.gains import GainGraph, gain_from_cocycle
from cyclecovers.graphs import Graph
from cyclecovers.groups import SIGNS, ExtraspecialGroup, HeisenbergElement, HeisenbergGroup
from cyclecovers.spectra import SpectrumReport, hermitian_eigenvalues, twisted_adjacency

from oracles import induced_subgraph


@functools.lru_cache(maxsize=None)
def cover(p: int, d: int, sign: str):
    return build_cover(p, d, sign)


@functools.lru_cache(maxsize=None)
def cube_cover(d: int):
    return heisenberg_cover(d)


@functools.lru_cache(maxsize=None)
def odd_cover(p: int, d: int, sign: str) -> CoveringMap:
    """Restrict the even-dimensional cover over the base hyperplane with last
    standard coordinate 0, giving a p-fold cover of one fewer cycle factor."""
    cm = cover(p, d, sign)
    # The last standard digit is the least significant, so the kept base ids
    # are the multiples of p, renumbered v // p.
    base = induced_subgraph(cm.base, range(0, cm.base.n, p))
    keep = [u for u, v in enumerate(cm.fiber_map) if v % p == 0]
    total = induced_subgraph(cm.total, keep)
    return CoveringMap(total, base, tuple(cm.fiber_map[u] // p for u in keep))


@functools.lru_cache(maxsize=None)
def gain_graph(p: int, d: int, sign: str):
    return gain_from_cocycle(p, d, sign)


@functools.lru_cache(maxsize=None)
def dense_twisted_spectrum(p: int, dims: int, sign: str, k: int) -> SpectrumReport:
    """The spectrum of the dense p^dims twisted matrix, the oracle of
    spectra.twisted_spectra: that of gain_from_cocycle on even dims, and of
    its restriction to the hyperplane, cli._gain_graph_for_dims, on odd."""
    gg = gain_graph(p, dims // 2, sign) if dims % 2 == 0 else _gain_graph_for_dims(p, dims, sign)
    return hermitian_eigenvalues(twisted_adjacency(gg, k))


@functools.lru_cache(maxsize=None)
def group_elements(p: int, d: int, sign: str):
    group = ExtraspecialGroup(p, d, sign)
    return group, tuple(group.elements())


def check_associativity_exhaustive(p: int, d: int, sign: str) -> bool:
    group, els = group_elements(p, d, sign)
    mul = group.mul
    for g in els:
        for h in els:
            gh = mul(g, h)
            for k in els:
                if mul(gh, k) != mul(g, mul(h, k)):
                    return False
    return True


def heisenberg_generators(group: HeisenbergGroup) -> tuple[HeisenbergElement, ...]:
    """(e_1, 0), ..., (e_d, 0)."""
    return tuple(
        HeisenbergElement(tuple(1 if j == i else 0 for j in range(group.d)), 0)
        for i in range(group.d)
    )


def check_inverses_exhaustive(p: int, d: int, sign: str) -> bool:
    group, els = group_elements(p, d, sign)
    e = group.identity
    return all(
        group.mul(g, group.inv(g)) == e and group.mul(group.inv(g), g) == e
        for g in els
    )


def check_center_exhaustive(p: int, d: int, sign: str) -> bool:
    """The center, found by brute force, is the p elements with a = b = 0."""
    group, els = group_elements(p, d, sign)
    expected = sorted(
        (group.element((0,) * d, (0,) * d, z) for z in range(p)),
        key=lambda g: (g.a, g.b, g.z),
    )
    center = [g for g in els if all(group.mul(g, h) == group.mul(h, g) for h in els)]
    found = sorted(center, key=lambda g: (g.a, g.b, g.z))
    return found == expected


def check_commutator_form_exhaustive(p: int, d: int, sign: str) -> bool:
    """Composed commutator equals the central element with coordinate
    b.c - a.d, for every ordered pair."""
    group, els = group_elements(p, d, sign)
    zero = (0,) * d
    for g in els:
        for h in els:
            got = group.commutator(g, h)
            want = (sum(x * y for x, y in zip(g.b, h.a))
                    - sum(x * y for x, y in zip(g.a, h.b))) % p
            if got != group.element(zero, zero, want):
                return False
    return True


def max_order(p: int, d: int, sign: str, sample=None) -> int:
    group, els = group_elements(p, d, sign)
    if sample is not None:
        els = sample(els)
    return max(group.order(g) for g in els)


def carry_identity_exhaustive(p: int) -> bool:
    """The carry function satisfies the cocycle identity as plain integers."""
    from cyclecovers.modular import carry_int

    for a, b, c in itertools.product(range(p), repeat=3):
        lhs = carry_int((a + b) % p, c, p) + carry_int(a, b, p)
        rhs = carry_int(a, (b + c) % p, p) + carry_int(b, c, p)
        if lhs != rhs:
            return False
        if not 0 <= lhs <= 2:
            return False
    return True


def is_regular(g: Graph):
    """The common degree of a regular graph, else None."""
    degs = {g.degree(v) for v in range(g.n)}
    return degs.pop() if len(degs) == 1 else None


def graph_from_edge_list_text(text: str) -> Graph:
    """Parse Graph.to_edge_list_text: "n m", then m lines "u v"."""
    lines = text.strip().split("\n")
    n, m = map(int, lines[0].split())
    return Graph(n, [tuple(map(int, line.split())) for line in lines[1: m + 1]])


def both_signs():
    return SIGNS


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


def gains_along(gg: GainGraph, step: tuple[int, ...], codec: VertexCodec) -> set[int]:
    """Distinct gains over the arcs (g, step + g) for all base vertices g."""
    p = gg.p
    out = set()
    for gid in range(gg.base.n):
        g = codec.decode(gid)
        tid = codec.encode(tuple((a + b) % p for a, b in zip(step, g)))
        out.add(gg.gain(gid, tid))
    return out
