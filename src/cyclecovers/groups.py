"""Central extensions of Z_p^{2d} by Z_p via explicit 2-cocycles.

Both extraspecial groups of order p^{1+2d} live on the same carrier
Z_p^d x Z_p^d x Z_p; the sign selects the cocycle, and with it the
multiplication. The mod-2 Heisenberg extension of Z_2^d lives on
Z_2^d x Z_2.
"""

from __future__ import annotations

import itertools
import operator
import random
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .modular import Prime, carry_int

PLUS = "plus"
MINUS = "minus"
SIGNS = (PLUS, MINUS)


class ExtraspecialElement(NamedTuple):
    """A triple (a, b, z) with a, b in Z_p^d and z in Z_p.

    A tuple, so it hashes and compares by value: it equals the plain tuple
    (a, b, z) and the element of any other group with the same coordinates.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    z: int


class HeisenbergElement(NamedTuple):
    """A pair (x, t) with x in Z_2^d and t in Z_2; a tuple, compared by value
    like ExtraspecialElement."""

    x: tuple[int, ...]
    t: int


def extraspecial_cocycle(p: int, sign: str, g: tuple[tuple[int, ...], tuple[int, ...]],
                         h: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """The 2-cocycle of ExtraspecialGroup(p, d, sign) on pairs ((a,b),(c,d)):
    b.c, plus a carry term for minus. Needs no group, so none of its tables.
    The coordinates of h may be integer arrays, one per coordinate, for the
    values at many h at once."""
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

    mul and inv read two tables over Z_p^d x Z_p^d built here, the
    componentwise sum mod p and the dot product mod p, and do not validate
    their arguments; cocycle is the checked definition they agree with.
    The tables are nested dicts, table[u][v], so a product hashes the
    vectors it holds and builds no pair key.
    """

    def __init__(self, p: int, d: int, sign: str):
        if sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.p = p = Prime(p)
        self.d = d
        self.sign = sign
        self.size = p ** (1 + 2 * d)
        self.identity = ExtraspecialElement((0,) * d, (0,) * d, 0)
        self._minus = sign == MINUS
        vectors = {v: v for v in itertools.product(range(p), repeat=d)}
        # Each sum is the tuple held in vectors, so the table shares p^d tuples.
        self._sum = {u: {v: vectors[tuple((x + y) % p for x, y in zip(u, v))] for v in vectors}
                     for u in vectors}
        self._dot = {u: {v: sum(map(operator.mul, u, v)) % p for v in vectors} for u in vectors}

    def element(self, a, b, z: int) -> ExtraspecialElement:
        a = tuple(int(x) % self.p for x in a)
        b = tuple(int(x) % self.p for x in b)
        if len(a) != self.d or len(b) != self.d:
            raise ValueError(f"blocks must have length d={self.d}")
        return ExtraspecialElement(a, b, int(z) % self.p)

    def embed(self, vec: tuple[int, ...]) -> ExtraspecialElement:
        """Include a vector of Z_p^{2d} as (a, b, 0)."""
        if len(vec) != 2 * self.d:
            raise ValueError(f"expected a vector of length {2 * self.d}")
        return self.element(vec[: self.d], vec[self.d:], 0)

    def cocycle(self, g: tuple[tuple[int, ...], tuple[int, ...]],
                h: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        """The 2-cocycle on pairs ((a,b),(c,d)): b.c, plus a carry term for minus."""
        return extraspecial_cocycle(self.p, self.sign, g, h)

    def mul(self, g: ExtraspecialElement, h: ExtraspecialElement) -> ExtraspecialElement:
        (ga, gb, gz), (ha, hb, hz) = g, h
        z = gz + hz + self._dot[gb][ha]
        if self._minus and ga[0] + ha[0] >= self.p:
            z += 1
        sums = self._sum
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        return tuple.__new__(ExtraspecialElement, (sums[ga][ha], sums[gb][hb], z % self.p))

    def inv(self, g: ExtraspecialElement) -> ExtraspecialElement:
        # (a, b, z)^-1 = (-a, -b, a.b - z), less the carry of a_1 + (-a_1) for minus.
        a, b, z = g
        p = self.p
        z = self._dot[a][b] - z
        if self._minus and a[0]:
            z -= 1
        return tuple.__new__(ExtraspecialElement,
                             (tuple(-x % p for x in a), tuple(-x % p for x in b), z % p))

    def commutator(self, g: ExtraspecialElement, h: ExtraspecialElement) -> ExtraspecialElement:
        """g^-1 h^-1 g h, computed by composition."""
        return self.mul(self.mul(self.mul(self.inv(g), self.inv(h)), g), h)

    def power(self, g: ExtraspecialElement, k: int) -> ExtraspecialElement:
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        out = self.identity
        for _ in range(k):
            out = self.mul(out, g)
        return out

    def order(self, g: ExtraspecialElement) -> int:
        out = g
        n = 1
        while out != self.identity:
            out = self.mul(out, g)
            n += 1
        return n

    def elements(self) -> Iterator[ExtraspecialElement]:
        """All elements, ordered a_1..a_d, b_1..b_d, z with a_1 most
        significant. The blocks a and b are shared tuples, one per vector
        of Z_p^d, and tuple.__new__ skips the NamedTuple's Python-level
        __new__."""
        vectors = list(itertools.product(range(self.p), repeat=self.d))
        triples = itertools.product(vectors, vectors, range(self.p))
        return map(tuple.__new__, itertools.repeat(ExtraspecialElement), triples)


_shared_groups: "weakref.WeakValueDictionary[tuple, ExtraspecialGroup]" = (
    weakref.WeakValueDictionary())


def extraspecial_group(p: int, d: int, sign: str) -> ExtraspecialGroup:
    """ExtraspecialGroup(p, d, sign), shared while any caller still holds
    it: verify holds its group while build_cover builds the cover, so both
    use one group and its tables, and a build alone frees them after."""
    group = _shared_groups.get((p, d, sign))
    if group is None:
        group = _shared_groups[(p, d, sign)] = ExtraspecialGroup(p, d, sign)
    return group


class HeisenbergGroup:
    """Central extension of Z_2^d by Z_2 via the strictly-upper bilinear form
    form(x, y) = sum over i < j of x_i y_j, mod 2."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = d
        self.size = 2 ** (d + 1)
        self.identity = HeisenbergElement((0,) * d, 0)

    def element(self, x, t: int) -> HeisenbergElement:
        x = tuple(int(v) % 2 for v in x)
        if len(x) != self.d:
            raise ValueError(f"vector must have length d={self.d}")
        return HeisenbergElement(x, int(t) % 2)

    def mul(self, g: HeisenbergElement, h: HeisenbergElement) -> HeisenbergElement:
        # form(x, y) is the sum of the prefix sums x_1 + ... + x_{j-1} over
        # the j with y_j = 1.
        (gx, gt), (hx, ht) = g, h
        form = sum(itertools.compress(itertools.accumulate(gx, initial=0), hx))
        return HeisenbergElement(tuple(map(operator.xor, gx, hx)), (gt + ht + form) % 2)

    def inv(self, g: HeisenbergElement) -> HeisenbergElement:
        # In characteristic 2 the inverse of (x, t) is (x, t + form(x, x)), and
        # form(x, x) counts the pairs i < j among the k nonzero entries of x.
        x, t = g
        k = sum(x)
        return HeisenbergElement(x, (t + k * (k - 1) // 2) % 2)

    def elements(self) -> Iterator[HeisenbergElement]:
        """Ordered x_1..x_d, t with x_1 most significant."""
        for digits in itertools.product(range(2), repeat=self.d + 1):
            yield HeisenbergElement(digits[:-1], digits[-1])


def low_bit_parities(x, d: int) -> Iterator:
    """For k = 0..d-1, the parity of the k low bits of x, an int or an
    integer array, by a running XOR.

    On the bit id of x in Z_2^d, x_1 most significant, bit k holds x_{d-k},
    so the k low bits are the x_j with j > d - k. Hence form(y, x) is the sum
    mod 2 over k of bit k of y times the k-th parity of x.
    """
    parity = x & 0
    for k in range(d):
        yield parity
        parity = parity ^ ((x >> k) & 1)


@dataclass(frozen=True)
class CocycleCheckResult:
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
        count = 0
        vecs = list(itertools.product(range(p), repeat=dim))
        for a in vecs:
            for b in vecs:
                for c in vecs:
                    count += 1
                    if violates(a, b, c):
                        return CocycleCheckResult(False, (a, b, c), True, count)
        return CocycleCheckResult(True, None, True, count)

    rng = random.Random(SAMPLE_SEED)
    for count in range(1, SAMPLE_SIZE + 1):
        a = tuple(rng.randrange(p) for _ in range(dim))
        b = tuple(rng.randrange(p) for _ in range(dim))
        c = tuple(rng.randrange(p) for _ in range(dim))
        if violates(a, b, c):
            return CocycleCheckResult(False, (a, b, c), False, count)
    return CocycleCheckResult(True, None, False, SAMPLE_SIZE)
