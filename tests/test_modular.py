import numpy as np
import pytest

from cyclecovers.modular import SUPPORTED_PRIMES, Prime, carry_int

from helpers import carry_identity_exhaustive


def test_prime_accepts_supported():
    for p in SUPPORTED_PRIMES:
        assert Prime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 17, -3])
def test_prime_rejects(bad):
    with pytest.raises(ValueError):
        Prime(bad)


def test_carry_examples():
    assert carry_int(0, 2, 3) == 0
    assert carry_int(2, 2, 3) == 1
    assert carry_int(1, 2, 3) == 1


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_carry_zero_annihilates(p):
    for a in range(p):
        assert carry_int(a, 0, p) == 0
        assert carry_int(0, a, p) == 0


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_carry_on_arrays_matches_each_pair(p):
    a, b = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    assert carry_int(a, b, p).tolist() == [[int(x + y >= p) for y in range(p)] for x in range(p)]


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_carry_cocycle_identity_exhaustive(p):
    assert carry_identity_exhaustive(p)

