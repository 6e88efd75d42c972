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


def carry_int(a: int, b: int, p: int) -> int:
    """1 when a + b reaches the modulus p, else 0: the carry out of adding two
    residues; a, b must already lie in [0, p)."""
    return 1 if a + b >= p else 0
