"""Exact arithmetic over the integers modulo a small prime.

Residues are stored as canonical representatives in [0, p), so reading a
value as an ordinary integer is the inclusion into Z.
"""

from __future__ import annotations

import operator

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class Prime(int):
    """A validated prime modulus. Behaves as a plain int. p is read through
    operator.index, so a float or a string raises TypeError."""

    def __new__(cls, p: int) -> "Prime":
        p = operator.index(p)
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"modulus must be a prime in {SUPPORTED_PRIMES}, got {p}")
        return super().__new__(cls, p)


def carry_int(a, b, p: int):
    """1 when a + b reaches the modulus p, else 0: the carry out of adding two
    residues, ints or integer arrays; a, b must already lie in [0, p)."""
    return (a + b) // p
