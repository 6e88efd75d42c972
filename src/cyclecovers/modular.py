"""Exact arithmetic over the integers modulo a small prime.

Residues are stored as canonical representatives in [0, p), so reading a
value as an ordinary integer is the inclusion into Z.
"""

from __future__ import annotations

from dataclasses import dataclass

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class Prime(int):
    """A validated prime modulus. Behaves as a plain int."""

    def __new__(cls, p: int) -> "Prime":
        p = int(p)
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"modulus must be a prime in {SUPPORTED_PRIMES}, got {p}")
        return super().__new__(cls, p)


@dataclass(frozen=True)
class Vector:
    """A fixed-length vector of residues mod p."""

    coords: tuple[int, ...]
    p: Prime

    def __post_init__(self) -> None:
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", Prime(self.p))
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if any(not 0 <= c < self.p for c in self.coords):
            raise ValueError(f"coordinates {self.coords} out of range for p={self.p}")

    @classmethod
    def zero(cls, p: int, dim: int) -> "Vector":
        return cls((0,) * dim, Prime(p))

    @classmethod
    def unit(cls, p: int, dim: int, i: int) -> "Vector":
        """The standard basis vector with a 1 in position i (0-based)."""
        if not 0 <= i < dim:
            raise ValueError(f"unit index {i} out of range for dim={dim}")
        return cls(tuple(1 if j == i else 0 for j in range(dim)), Prime(p))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def _check(self, other: "Vector") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if len(self.coords) != len(other.coords):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)), self.p)

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(tuple((a - b) % self.p for a, b in zip(self.coords, other.coords)), self.p)

    def __neg__(self) -> "Vector":
        return Vector(tuple((-a) % self.p for a in self.coords), self.p)

    def scale(self, c: int) -> "Vector":
        return Vector(tuple((c * a) % self.p for a in self.coords), self.p)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def carry_int(a: int, b: int, p: int) -> int:
    """1 when a + b reaches the modulus p, else 0: the carry out of adding two
    residues; a, b must already lie in [0, p)."""
    return 1 if a + b >= p else 0
