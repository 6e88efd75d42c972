import numpy as np
import pytest

from cyclecovers.covers import GainGraph, build_cover
from cyclecovers.graphs import Graph
from cyclecovers.modular import SUPPORTED_PRIMES, Prime, carry_int

from helpers import carry_identity_exhaustive


def test_prime_accepts_supported():
    for p in SUPPORTED_PRIMES:
        assert Prime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 17, -3])
def test_prime_rejects(bad):
    with pytest.raises(ValueError):
        Prime(bad)


@pytest.mark.parametrize("bad", [3.0, 3.7, 5.9, "5", "3", None],
                         ids=["3.0", "3.7", "5.9", "'5'", "'3'", "None"])
def test_prime_refuses_what_is_not_an_integer(bad):
    # int() would truncate 3.7 to the supported 3 and parse '5'.
    with pytest.raises(TypeError):
        Prime(bad)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
def test_prime_accepts_numpy_integers(dtype):
    p = Prime(dtype(5))
    assert p == 5 and type(p) is Prime


def test_a_float_modulus_builds_nothing():
    # Before, build_cover(3.9, ...) built the p = 3 cover, and a gain graph
    # at p = 3.5 reduced its gains mod 3.
    with pytest.raises(TypeError):
        build_cover(3.9, 1, "plus")
    base = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(TypeError):
        GainGraph(base, 3.5, [0] * 6)
    assert GainGraph(base, np.int64(3), [1, 2, 2, 0, 1, 0]).p == 3


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

