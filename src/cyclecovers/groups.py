"""Central extensions of Z_p^{2d} by Z_p via explicit 2-cocycles.

Both extraspecial groups of order p^{1+2d} live on the same carrier
Z_p^d x Z_p^d x Z_p; the sign selects the cocycle, and with it the
multiplication. The mod-2 Heisenberg extension of Z_2^d lives on
Z_2^d x Z_2. Both groups' elements are integer ids.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import weakref
from typing import Callable, NamedTuple, Optional

import numpy as np

from .modular import Prime, carry_int

PLUS = "plus"
MINUS = "minus"
SIGNS = (PLUS, MINUS)


class ExtraspecialElement(NamedTuple):
    """The coordinates (a, b, z) of an extraspecial element id; a tuple."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    z: int


def _checked(g: int, size: int) -> int:
    g = operator.index(g)
    if not 0 <= g < size:
        raise ValueError(f"element id {g} out of range 0..{size - 1}")
    return g


def extraspecial_cocycle(p: int, sign: str, g: tuple[tuple[int, ...], tuple[int, ...]],
                         h: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """The 2-cocycle of ExtraspecialGroup(p, d, sign) on pairs ((a,b),(c,d)):
    b.c, plus a carry term for minus. Needs no group, so none of its tables.
    The coordinates of h may be integer arrays, one per coordinate, for the
    values at many h at once. ValueError for an unknown sign."""
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    (a, b), (c, _) = g, h
    if len(a) != len(c):
        raise ValueError("dimension mismatch in cocycle arguments")
    val = sum(x * y for x, y in zip(b, c)) % p
    if sign == MINUS:
        val = (val + carry_int(a[0], c[0], p)) % p
    return val


class ExtraspecialGroup:
    """Group of order p^{1+2d} on Z_p^d x Z_p^d x Z_p, multiplication set by `sign`.

    sign="plus" gives the exponent-p group (cocycle b.c); sign="minus" gives
    the exponent-p^2 group (cocycle b.c + carry on the first coordinates).

    Elements are the cover's vertex ids (A p^d + B) p + z, A and B the
    base-p numbers of the blocks a and b, a_1 most significant; element and
    embed encode, coordinates decodes. mul reads flat p^d x p^d lists over
    pairs of block ids, built with the first product, and does not validate
    its arguments; cocycle is the checked definition it agrees with.
    """

    def __init__(self, p: int, d: int, sign: str):
        if sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
        d = operator.index(d)
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.p = Prime(p)
        self.d = d
        self.sign = sign
        self.size = self.p ** (1 + 2 * d)
        self.identity = 0
        self._q = self.p ** d

    def _build_tables(self) -> tuple[list[int], ...]:
        """Build and keep the lists that mul reads, at the pair ids u q + v of
        block ids u, v, q = p^d: the id of u + v times p q and times p, u.v,
        the carry of the first coordinates (0 for plus), u and v. Not a
        cached_property: the interpreter loads an instance attribute that a
        class descriptor shadows on a slow path, which made mul 20% slower."""
        p, q = self.p, self._q
        weights = p ** np.arange(self.d - 1, -1, -1)
        digits = np.arange(q)[:, None] // weights % p
        sums = sum(np.add.outer(x, x) % p * w for x, w in zip(digits.T, weights)) * p
        carries = np.add.outer(digits[:, 0], digits[:, 0]) // p * (self.sign == MINUS)
        self._tables = tuple(t.ravel().tolist() for t in (
            sums * q, sums, digits @ digits.T % p, carries, *np.divmod(np.arange(q * q), q)))
        return self._tables

    def element(self, a, b, z: int) -> int:
        """The id of (a, b, z); each coordinate must be an integer, taken mod p."""
        a, b = tuple(a), tuple(b)
        if len(a) != self.d or len(b) != self.d:
            raise ValueError(f"blocks must have length d={self.d}")
        return functools.reduce(lambda g, x: g * self.p + operator.index(x) % self.p,
                                (*a, *b, z), 0)

    def embed(self, vec: tuple[int, ...]) -> int:
        """Include a vector of Z_p^{2d} as (a, b, 0)."""
        if len(vec) != 2 * self.d:
            raise ValueError(f"expected a vector of length {2 * self.d}")
        return self.element(vec[: self.d], vec[self.d:], 0)

    def coordinates(self, g: int) -> ExtraspecialElement:
        """The element (a, b, z) with id g."""
        g, p, d = _checked(g, self.size), self.p, self.d
        digits = tuple(g // p ** k % p for k in range(2 * d, -1, -1))
        return ExtraspecialElement(digits[:d], digits[d: 2 * d], digits[-1])

    def cocycle(self, g: tuple[tuple[int, ...], tuple[int, ...]],
                h: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        """The 2-cocycle on pairs ((a,b),(c,d)): b.c, plus a carry term for minus."""
        return extraspecial_cocycle(self.p, self.sign, g, h)

    def mul(self, g: int, h: int) -> int:
        # g = x p + z and h = y p + w with pair ids x = A q + B, y = C q + D
        # give (A + C, B + D, z + w + B.C + carry(A, C)), on the blocks' vectors.
        try:
            high_sums, low_sums, dots, carries, firsts, seconds = self._tables
        except AttributeError:  # the first product
            high_sums, low_sums, dots, carries, firsts, seconds = self._build_tables()
        p, q = self.p, self._q
        x, y = g // p, h // p
        b, c = seconds[x], firsts[y]
        ac = x - b + c
        b *= q
        return (high_sums[ac] + low_sums[b + seconds[y]]
                + (g + h - (x + y) * p + dots[b + c] + carries[ac]) % p)

    def inv(self, g: int) -> int:
        # (a, b, z)^-1 = (-a, -b, a.b - z), less the carry of a_1 + (-a_1) for
        # minus. No build inverts every vertex, so this works on coordinates.
        a, b, z = self.coordinates(g)
        z = sum(map(operator.mul, a, b)) - z - (self.sign == MINUS and a[0] > 0)
        return self.element([-x for x in a], [-x for x in b], z)

    def commutator(self, g: int, h: int) -> int:
        """g^-1 h^-1 g h, computed by composition."""
        return self.mul(self.mul(self.mul(self.inv(g), self.inv(h)), g), h)

    def power(self, g: int, k: int) -> int:
        g = _checked(g, self.size)
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return functools.reduce(self.mul, itertools.repeat(g, k), self.identity)

    def order(self, g: int) -> int:
        out = g = _checked(g, self.size)
        n = 1
        while out != self.identity:
            out = self.mul(out, g)
            n += 1
        return n

    def elements(self) -> range:
        """All ids: a_1..a_d, b_1..b_d, z in order, a_1 most significant."""
        return range(self.size)


_shared_groups: "weakref.WeakValueDictionary[tuple, ExtraspecialGroup]" = (
    weakref.WeakValueDictionary())


def extraspecial_group(p: int, d: int, sign: str) -> ExtraspecialGroup:
    """ExtraspecialGroup(p, d, sign), shared while any caller still holds
    it: verify holds its group while build_cover builds the cover, so both
    use one group and its tables, and a build alone frees them after."""
    key = (Prime(p), operator.index(d), sign)  # a float key would find the int's group
    group = _shared_groups.get(key)
    if group is None:
        group = _shared_groups[key] = ExtraspecialGroup(*key)
    return group


class HeisenbergGroup:
    """Central extension of Z_2^d by Z_2 via the strictly-upper bilinear form
    form(x, y) = sum over i < j of x_i y_j, mod 2.

    Elements are the ids 2x + t of the pairs (x, t), x read as the bits
    x_1..x_d, x_1 most significant, and t the central bit; element encodes,
    coordinates decodes. mul and inv take ints or int64 arrays, which
    broadcast, and do not validate their arguments.
    """

    def __init__(self, d: int):
        d = operator.index(d)
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = d
        self.size = 2 ** (d + 1)
        self.identity = 0
        # XOR-ing x >> s into x for s = 1, 2, ..., 2^(m-1), where 2^m >= d,
        # leaves at bit k the parity of the bits k..k+2^m-1 of x: of all its
        # bits from k up.
        self._shifts = tuple(1 << k for k in range((d - 1).bit_length()))

    def _parities(self, x):
        for shift in self._shifts:
            x = x ^ (x >> shift)
        return x

    def _form(self, x, y):
        # Bit k of y holds y_{d-k}, and bit k of parities(x) >> 1 the sum of
        # the x_i with i < d - k, so their common bits count the pairs i < j.
        return self._parities((self._parities(x) >> 1) & y) & 1

    def element(self, x, t: int) -> int:
        """The id of (x, t); each coordinate must be an integer, taken mod 2."""
        x = tuple(x)
        if len(x) != self.d:
            raise ValueError(f"vector must have length d={self.d}")
        return functools.reduce(lambda g, v: 2 * g + operator.index(v) % 2, (*x, t), 0)

    def coordinates(self, g: int) -> tuple[tuple[int, ...], int]:
        """The pair (x, t) with id g."""
        g = _checked(g, self.size)
        return tuple(g >> k & 1 for k in range(self.d, 0, -1)), g & 1

    def mul(self, g, h):
        # (x, t)(y, s) = (x + y, t + s + form(x, y)).
        return g ^ h ^ self._form(g >> 1, h >> 1)

    def inv(self, g):
        # In characteristic 2 the inverse of (x, t) is (x, t + form(x, x)).
        return g ^ self._form(g >> 1, g >> 1)

    def elements(self) -> range:
        """All ids: x_1..x_d, t in order, x_1 most significant."""
        return range(self.size)


class CocycleCheckResult(NamedTuple):
    ok: bool
    witness: Optional[tuple]
    exhaustive: bool
    triples_checked: int


EXHAUSTIVE_LIMIT = 10 ** 7
SAMPLE_SIZE = 10 ** 5
SAMPLE_SEED = 0


def cocycle_check(cocycle_fn: Callable[[tuple[int, ...], tuple[int, ...]], int],
                  p: int, dim: int) -> CocycleCheckResult:
    """Verify kappa(a+b,c) + kappa(a,b) = kappa(a,b+c) + kappa(b,c) mod p.

    Exhausts all triples of Z_p^dim when p^(3*dim) <= EXHAUSTIVE_LIMIT,
    otherwise checks SAMPLE_SIZE triples drawn with the fixed SAMPLE_SEED.
    Returns the first violating triple on failure.
    """
    p = Prime(p)

    def add(u, v):
        return tuple((x + y) % p for x, y in zip(u, v))

    def violates(a, b, c):
        lhs = (cocycle_fn(add(a, b), c) + cocycle_fn(a, b)) % p
        rhs = (cocycle_fn(a, add(b, c)) + cocycle_fn(b, c)) % p
        return lhs != rhs

    total = p ** (3 * dim)
    if total <= EXHAUSTIVE_LIMIT:
        vecs = list(itertools.product(range(p), repeat=dim))
        for count, (a, b, c) in enumerate(itertools.product(vecs, repeat=3), 1):
            if violates(a, b, c):
                return CocycleCheckResult(False, (a, b, c), True, count)
        return CocycleCheckResult(True, None, True, total)

    rng = random.Random(SAMPLE_SEED)
    for count in range(1, SAMPLE_SIZE + 1):
        a, b, c = (tuple(rng.randrange(p) for _ in range(dim)) for _ in range(3))
        if violates(a, b, c):
            return CocycleCheckResult(False, (a, b, c), False, count)
    return CocycleCheckResult(True, None, False, SAMPLE_SIZE)
