import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclecovers.convolution as conv
from cyclecovers.convolution import (
    GroupFunction,
    central_lift,
    check_central_lift_identity,
    convolution_operator_matrix,
    heisenberg_carrier,
    standard_basis_indicator,
    twisted_convolve,
    twisted_operator_matrix,
    z2_carrier,
)
from cyclecovers.covers import cohen_tits_signing
from cyclecovers.graphs import hypercube
from cyclecovers.groups import HeisenbergGroup
from cyclecovers.spectra import adjacency_matrix, hermitian_eigenvalues

from oracles import (
    central_lift_by_definition,
    convolve_by_definition,
    heisenberg_inv_by_form,
    heisenberg_mul_by_form,
    twisted_convolve_by_definition,
)


def _form_ops(d):
    """The product and inverse of HeisenbergGroup(d) on ids, from the upper
    form of their coordinates, one element at a time."""
    group = HeisenbergGroup(d)
    return (functools.partial(heisenberg_mul_by_form, group),
            functools.partial(heisenberg_inv_by_form, group))


def _z2_ops(d):
    def add(u, v):
        return tuple((a + b) % 2 for a, b in zip(u, v))

    def neg(u):
        return u

    return add, neg


def _random_fn(carrier, rng):
    return GroupFunction(carrier, [rng.randrange(-3, 4) for _ in carrier])


def test_convolution_by_basis_indicator_is_cube_adjacency():
    for d in (1, 2, 3, 4):
        assert np.array_equal(convolution_operator_matrix(d),
                              adjacency_matrix(hypercube(d)))


def test_convolution_action_matches_neighbor_sum():
    # The operator's matrix applied to f is f * mu, whose value at x sums f
    # over the neighbours x + e of x in the cube.
    d = 3
    carrier = z2_carrier(d)
    add, _ = _z2_ops(d)
    rng = random.Random(2)
    f = _random_fn(carrier, rng)
    out = convolution_operator_matrix(d) @ np.array(f.values)
    units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    for i, x in enumerate(carrier):
        assert out[i] == sum(f(add(x, e)) for e in units)


def test_twisted_delta_unit():
    d = 3
    carrier = z2_carrier(d)
    delta0 = GroupFunction.delta(carrier, (0,) * d)
    rng = random.Random(4)
    for _ in range(5):
        f = _random_fn(carrier, rng)
        assert twisted_convolve(delta0, f) == f


@pytest.mark.parametrize("d", range(1, 6))
def test_twisted_operator_spectrum(d):
    m = twisted_operator_matrix(d)
    assert np.array_equal(m, m.T)
    rep = hermitian_eigenvalues(m)
    root = math.sqrt(d)
    expected = [root] * (2 ** (d - 1)) + [-root] * (2 ** (d - 1))
    assert np.max(np.abs(np.array(rep.eigenvalues) - np.array(expected))) < 1e-8


@pytest.mark.parametrize("d", range(1, 6))
def test_twisted_operator_matches_signing_spectrum(d):
    got = hermitian_eigenvalues(twisted_operator_matrix(d)).eigenvalues
    want = hermitian_eigenvalues(cohen_tits_signing(d).entries.astype(float)).eigenvalues
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-9


def test_central_lift_of_delta():
    d = 2
    carrier = z2_carrier(d)
    lifted = central_lift(GroupFunction.delta(carrier, (0, 0)))
    h = HeisenbergGroup(d)
    for g in lifted.carrier:
        x, t = h.coordinates(g)
        expected = ((-1) ** t) if x == (0, 0) else 0
        assert lifted(g) == expected


def test_central_lift_is_linear():
    d = 3
    carrier = z2_carrier(d)
    rng = random.Random(5)
    f, g = _random_fn(carrier, rng), _random_fn(carrier, rng)
    total = GroupFunction(carrier, [a + b for a, b in zip(f.values, g.values)])
    lifted = central_lift(total)
    assert lifted.carrier == central_lift(f).carrier == heisenberg_carrier(d)
    assert lifted.values == tuple(
        a + b for a, b in zip(central_lift(f).values, central_lift(g).values))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_central_lift_refuses_another_carrier(d):
    # The lift places (x, t) at 2 xid + t, which holds on z2_carrier(d) alone.
    carrier = z2_carrier(d)
    for other in (carrier[::-1], carrier[1:] + carrier[:1], heisenberg_carrier(d)):
        f = GroupFunction(other, range(len(other)))
        with pytest.raises(ValueError, match="z2_carrier"):
            central_lift(f)
    # An equal carrier made anew is the same carrier.
    ones = GroupFunction(list(carrier), [1] * len(carrier))
    assert central_lift(ones).values == (1, -1) * len(carrier)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_lift_intertwines_on_delta_basis(d):
    carrier = z2_carrier(d)
    for x in carrier:
        for y in carrier:
            f = GroupFunction.delta(carrier, x)
            g = GroupFunction.delta(carrier, y)
            ok, factor = check_central_lift_identity(f, g)
            assert ok and factor == 2


def test_lift_intertwines_random_d4():
    carrier = z2_carrier(4)
    rng = random.Random(0)
    for _ in range(100):
        f, g = _random_fn(carrier, rng), _random_fn(carrier, rng)
        ok, factor = check_central_lift_identity(f, g)
        assert ok and factor == 2


def test_lift_factor_is_exactly_center_order():
    # The unscaled identity fails; the center of the extension contributes
    # a factor equal to its order.
    d = 2
    carrier = z2_carrier(d)
    h = HeisenbergGroup(d)
    f = GroupFunction.delta(carrier, (1, 0))
    g = GroupFunction.delta(carrier, (0, 1))
    lhs = convolve_by_definition(central_lift(f), central_lift(g), h.mul, h.inv)
    rhs = central_lift(twisted_convolve(f, g))
    assert lhs != list(rhs.values)
    assert lhs == list(rhs.scale(2).values)


def test_group_function_validation():
    carrier = z2_carrier(2)
    with pytest.raises(ValueError):
        GroupFunction(carrier, [0, 1])
    f = GroupFunction(carrier, [1, 2, 3, 4])
    other = GroupFunction(z2_carrier(1), [1, 2])
    with pytest.raises(ValueError):
        f._check(other)


# ---------------------------------------------------------------- table kernel


def _draw_function(data, carrier, bound=1000):
    values = data.draw(st.lists(st.integers(-bound, bound),
                                min_size=len(carrier), max_size=len(carrier)))
    return GroupFunction(carrier, values)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_heisenberg_convolution_matches_oracle(d, data):
    # The kernel over the table check_central_lift_identity convolves with.
    carrier = heisenberg_carrier(d)
    f, g = _draw_function(data, carrier), _draw_function(data, carrier)
    got = conv._gather_sum(f, g, conv._heisenberg_division_table(d))
    assert got.carrier == carrier
    assert list(got.values) == convolve_by_definition(f, g, *_form_ops(d))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_z2_convolutions_match_oracle(d, data):
    # The kernel over the XOR table convolution_operator_matrix convolves with.
    carrier = z2_carrier(d)
    add, neg = _z2_ops(d)
    f, g = _draw_function(data, carrier), _draw_function(data, carrier)
    sums, _ = conv._twist_tables(carrier)
    assert list(conv._gather_sum(f, g, sums).values) == convolve_by_definition(f, g, add, neg)
    assert list(twisted_convolve(f, g).values) == twisted_convolve_by_definition(f, g)


@pytest.mark.parametrize("d", range(1, 8))
def test_twisted_convolution_matches_oracle_at_each_d(d):
    # The index and sign tables come from bit ids; the oracle forms y + x
    # and the upper form coordinate by coordinate.
    carrier = z2_carrier(d)
    rng = random.Random(d)
    f, g = _random_fn(carrier, rng), _random_fn(carrier, rng)
    assert list(twisted_convolve(f, g).values) == twisted_convolve_by_definition(f, g)


def test_twisted_convolution_needs_the_z2_carrier():
    carrier = z2_carrier(2)[::-1]
    f = GroupFunction(carrier, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="z2_carrier"):
        twisted_convolve(f, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_lift_identity_matches_oracle(d, data):
    h = HeisenbergGroup(d)
    carrier = z2_carrier(d)
    f, g = _draw_function(data, carrier), _draw_function(data, carrier)
    lift_f = central_lift(f)
    assert lift_f.carrier == heisenberg_carrier(d)
    assert list(lift_f.values) == central_lift_by_definition(f, h)
    lhs = convolve_by_definition(lift_f, central_lift(g), *_form_ops(d))
    twisted = GroupFunction(carrier, twisted_convolve_by_definition(f, g))
    rhs = [2 * v for v in central_lift_by_definition(twisted, h)]
    assert lhs == rhs
    assert check_central_lift_identity(f, g) == (True, 2)


def _division_table_by_pairs(carrier, mul, inv):
    """The carrier index of y^-1 x at [y, x], one product per pair."""
    index = {g: i for i, g in enumerate(carrier)}
    return np.array([[index[mul(inv(y), x)] for x in carrier] for y in carrier])


@pytest.mark.parametrize("d", range(1, 7))
def test_bit_id_division_tables_match_the_per_pair_tables(d):
    # The per-pair table makes one product per pair of elements, from the
    # upper form of their coordinates: the definition the Heisenberg and
    # Z_2^d tables from bit ids must equal.
    assert np.array_equal(conv._heisenberg_division_table(d),
                          _division_table_by_pairs(heisenberg_carrier(d), *_form_ops(d)))
    add, neg = _z2_ops(d)
    sums, _ = conv._twist_tables(z2_carrier(d))
    assert np.array_equal(sums, _division_table_by_pairs(z2_carrier(d), add, neg))


def test_convolution_refuses_values_that_could_overflow_int64():
    carrier = z2_carrier(2)
    # The bound on each partial sum is 4 * 2^62 = 2^64, past int64.
    big = GroupFunction(carrier, [2 ** 31] * 4)
    with pytest.raises(ValueError, match="overflow"):
        twisted_convolve(big, big)
    # At 2^62 the sums still fit, and come out exact.
    fits = GroupFunction(carrier, [2 ** 30] * 4)
    assert twisted_convolve(fits, fits).values == (2 ** 61,) * 4
    assert list(twisted_convolve(fits, fits).values) == twisted_convolve_by_definition(fits, fits)
    zero = GroupFunction(carrier, [0] * 4)
    huge = GroupFunction(carrier, [2 ** 70, 0, 0, 0])
    for f, g in ((huge, zero), (zero, huge)):
        with pytest.raises(ValueError, match="overflow"):
            twisted_convolve(f, g)


def test_convolution_refuses_non_integer_values():
    carrier = z2_carrier(1)
    f = GroupFunction(carrier, [1, 0])
    with pytest.raises(ValueError, match="integer"):
        twisted_convolve(f, GroupFunction(carrier, [0.5, 1]))
