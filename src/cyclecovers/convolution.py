"""Dense functions on small finite groups: convolution over Z_2^d and the
Heisenberg group, the mod-2 twisted convolution, and the lift to the
Heisenberg carrier.

Each convolution is one exact kernel, (f * g)(x) = sum over y of
f(y) g(T[y, x]), times S[y, x] for the twisted convolution, over tables T
and S that depend only on the group, built once per d from bit ids. The
kernel sums in int64 and refuses input where a sum could overflow.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import HeisenbergGroup

_INT64_MAX = 2 ** 63 - 1


class GroupFunction:
    """A total function from an enumerated carrier to integers.

    Values stay integers through convolution, keeping the algebraic identity
    checks exact. The constructor checks the carrier; a function that a
    kernel returns reuses its input's carrier unchecked (_on).
    """

    def __init__(self, carrier: Sequence, values: Sequence):
        if len(carrier) != len(values):
            raise ValueError("one value per carrier element required")
        self.carrier = tuple(carrier)
        self.values = tuple(values)
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier contains repeated elements")

    @classmethod
    def _on(cls, carrier: tuple, values: Sequence) -> "GroupFunction":
        """The function with these values on a carrier already checked."""
        out = cls.__new__(cls)
        out.carrier, out.values = carrier, tuple(values)
        return out

    @functools.cached_property
    def index(self) -> dict:
        """Carrier index of each element, built on the first call of self."""
        return {g: i for i, g in enumerate(self.carrier)}

    @classmethod
    def delta(cls, carrier: Sequence, at) -> "GroupFunction":
        values = [0] * len(carrier)
        values[list(carrier).index(at)] = 1
        return cls(carrier, values)

    @classmethod
    def indicator(cls, carrier: Sequence, support: set) -> "GroupFunction":
        return cls(carrier, [1 if g in support else 0 for g in carrier])

    def __call__(self, g):
        return self.values[self.index[g]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupFunction)
            and self.carrier == other.carrier
            and self.values == other.values
        )

    def scale(self, c) -> "GroupFunction":
        return GroupFunction._on(self.carrier, [c * v for v in self.values])

    def _check(self, other: "GroupFunction") -> None:
        if self.carrier != other.carrier:
            raise ValueError("functions live on different carriers")


@functools.lru_cache(maxsize=None)
def z2_carrier(d: int) -> tuple[tuple[int, ...], ...]:
    """All of Z_2^d, first coordinate most significant."""
    return tuple(itertools.product(range(2), repeat=d))


def _z2_rank(carrier: tuple, use: str) -> int:
    """The d whose z2_carrier(d) is carrier; ValueError naming the use for
    any other carrier."""
    d = len(carrier).bit_length() - 1
    if d < 0 or carrier != z2_carrier(d):
        raise ValueError(f"{use} needs the carrier z2_carrier(d)")
    return d


@functools.lru_cache(maxsize=None)
def heisenberg_carrier(d: int) -> tuple[int, ...]:
    """The ids of HeisenbergGroup(d)."""
    return tuple(HeisenbergGroup(d).elements())


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _heisenberg_division_table(d: int) -> np.ndarray:
    """The index of y^-1 x at [y, x] over heisenberg_carrier(d), whose
    indices are the ids."""
    group = HeisenbergGroup(d)
    ids = np.arange(group.size)
    return _frozen(group.mul(group.inv(ids)[:, None], ids))


@functools.lru_cache(maxsize=8)
def _twist_tables(carrier: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Over z2_carrier(d), where each element's index is its bit id: the
    index of y + x at [y, x], which is the XOR of the ids, and the sign
    (-1)^form(y, y + x) that twisted convolution gives that term, the
    central bit of the product (y, 0)(y + x, 0) in HeisenbergGroup(d)."""
    d = _z2_rank(carrier, "twisted convolution")
    y = np.arange(len(carrier))[:, None]
    sums = y ^ y.T
    return _frozen(sums), _frozen(1 - 2 * (HeisenbergGroup(d).mul(2 * y, 2 * sums) & 1))


def _exact(f: GroupFunction, g: GroupFunction) -> tuple[np.ndarray, np.ndarray]:
    """The values of f and g as int64 arrays; ValueError unless both take
    integer values and every sum the kernel forms fits in int64."""
    f._check(g)
    # Each partial sum is at most sum |f(y)| times max |g| in absolute value.
    f_sum = sum(map(abs, f.values))
    g_max = max(map(abs, g.values), default=0)
    if max(f_sum, g_max, f_sum * g_max) > _INT64_MAX:
        raise ValueError("convolution values could overflow int64")
    fv, gv = np.array(f.values), np.array(g.values)
    if fv.dtype.kind not in "biu" or gv.dtype.kind not in "biu":
        raise ValueError("convolution needs integer values")
    return fv.astype(np.int64), gv.astype(np.int64)


def _gather_sum(f: GroupFunction, g: GroupFunction, ids: np.ndarray,
                signs: Optional[np.ndarray] = None) -> GroupFunction:
    """The function x -> sum over y of f(y) g(ids[y, x]), each term times
    signs[y, x] when signs are given."""
    fv, gv = _exact(f, g)
    terms = gv[ids] if signs is None else gv[ids] * signs
    return GroupFunction._on(f.carrier, (fv @ terms).tolist())


def standard_basis_indicator(d: int) -> GroupFunction:
    """Indicator of the d unit vectors; convolving by it acts as the cube's
    adjacency matrix."""
    carrier = z2_carrier(d)
    units = {tuple(1 if j == i else 0 for j in range(d)) for i in range(d)}
    return GroupFunction.indicator(carrier, units)


def twisted_convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Convolution over Z_2^d, on the carrier z2_carrier(d), carrying the
    sign of the strictly-upper form evaluated at (y, y + x)."""
    return _gather_sum(f, g, *_twist_tables(f.carrier))


def central_lift(f: GroupFunction) -> GroupFunction:
    """Lift f on z2_carrier(d) to heisenberg_carrier(d), weighted by the
    parity character on the central coordinate: (x, t) -> (-1)^t f(x), at
    index 2 xid + t, xid the bit id of x. ValueError for another carrier."""
    d = _z2_rank(f.carrier, "the central lift")
    return GroupFunction._on(heisenberg_carrier(d), [w for v in f.values for w in (v, -v)])


def check_central_lift_identity(f: GroupFunction, g: GroupFunction) -> tuple[bool, int]:
    """Verify that the convolution of lift f and lift g in the Heisenberg
    group equals the lift of the twisted convolution scaled by the center
    order. Returns (ok, center_order)."""
    center_order = 2
    table = _heisenberg_division_table(_z2_rank(f.carrier, "the central lift"))
    lhs = _gather_sum(central_lift(f), central_lift(g), table)
    rhs = central_lift(twisted_convolve(f, g)).scale(center_order)
    return lhs == rhs, center_order


def operator_matrix(transform: Callable[[GroupFunction], GroupFunction],
                    carrier: Sequence) -> np.ndarray:
    """Matrix of a linear map on functions, columns indexed by delta inputs."""
    n = len(carrier)
    m = np.zeros((n, n))
    for j, y in enumerate(carrier):
        col = transform(GroupFunction.delta(carrier, y))
        m[:, j] = col.values
    return m


def convolution_operator_matrix(d: int) -> np.ndarray:
    """Matrix of f -> f * (standard basis indicator) over Z_2^d, where
    y^-1 x = y + x is the XOR of the bit ids (_twist_tables)."""
    mu = standard_basis_indicator(d)
    sums, _ = _twist_tables(z2_carrier(d))
    return operator_matrix(lambda f: _gather_sum(f, mu, sums), z2_carrier(d))


def twisted_operator_matrix(d: int) -> np.ndarray:
    """Matrix of f -> twisted_convolve(f, standard basis indicator)."""
    mu = standard_basis_indicator(d)
    return operator_matrix(lambda f: twisted_convolve(f, mu), z2_carrier(d))
