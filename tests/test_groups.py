import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecovers.groups import (
    MINUS,
    PLUS,
    SIGNS,
    ExtraspecialElement,
    ExtraspecialGroup,
    HeisenbergGroup,
    cocycle_check,
    extraspecial_cocycle,
    extraspecial_group,
)
from cyclecovers.modular import carry_int

from helpers import (
    check_associativity_exhaustive,
    check_center_exhaustive,
    check_commutator_form_exhaustive,
    check_inverses_exhaustive,
    group_elements,
    heisenberg_generators,
    max_order,
)
from oracles import heisenberg_inv_by_form, heisenberg_mul_by_form, upper_form


def test_cocycle_examples():
    plus = ExtraspecialGroup(3, 1, PLUS)
    minus = ExtraspecialGroup(3, 1, MINUS)
    assert plus.cocycle(((1,), (2,)), ((2,), (1,))) == 1
    assert minus.cocycle(((1,), (2,)), ((2,), (1,))) == 2
    for g in (plus, minus):
        assert g.cocycle(((0,), (0,)), ((0,), (0,))) == 0


def test_cocycle_rejects_an_unknown_sign():
    # An unknown sign used to give the plus cocycle.
    for sign in ("minsu", "both", None):
        with pytest.raises(ValueError, match="sign"):
            extraspecial_cocycle(3, sign, ((1,), (0,)), ((2,), (0,)))


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("sign", SIGNS)
def test_cocycle_on_arrays_matches_each_pair(p, d, sign):
    vecs = list(itertools.product(range(p), repeat=2 * d))
    columns = tuple(np.array(vecs).T)
    for g in vecs:
        values = extraspecial_cocycle(p, sign, (g[:d], g[d:]), (columns[:d], columns[d:]))
        assert values.tolist() == [extraspecial_cocycle(p, sign, (g[:d], g[d:]), (h[:d], h[d:]))
                                   for h in vecs]


def test_mul_examples():
    plus = ExtraspecialGroup(3, 1, PLUS)
    minus = ExtraspecialGroup(3, 1, MINUS)
    g = plus.element((1,), (1,), 0)
    h = plus.element((1,), (0,), 0)
    assert plus.mul(g, h) == plus.element((2,), (1,), 1)
    k = minus.element((2,), (0,), 0)
    assert minus.mul(k, k) == minus.element((1,), (0,), 1)
    for group in (plus, minus):
        for el in group.elements():
            assert group.mul(group.identity, el) == el
            assert group.mul(el, group.identity) == el


def test_inverse_examples():
    plus = ExtraspecialGroup(3, 1, PLUS)
    for z in range(3):
        assert plus.inv(plus.element((0,), (0,), z)) == plus.element((0,), (0,), (-z) % 3)
    assert plus.inv(plus.element((1,), (2,), 0)) == plus.element((2,), (1,), 2)


@pytest.mark.parametrize("sign", SIGNS)
def test_inverses_exhaustive_31(sign):
    assert check_inverses_exhaustive(3, 1, sign)


@pytest.mark.parametrize("sign", SIGNS)
def test_inverses_exhaustive_51(sign):
    assert check_inverses_exhaustive(5, 1, sign)


@pytest.mark.parametrize("sign", SIGNS)
def test_associativity_exhaustive_31(sign):
    assert check_associativity_exhaustive(3, 1, sign)


@pytest.mark.parametrize("sign", SIGNS)
def test_center_exhaustive(sign):
    assert check_center_exhaustive(3, 1, sign)
    assert check_center_exhaustive(5, 1, sign)


@pytest.mark.parametrize("sign", SIGNS)
def test_commutator_closed_form_exhaustive_31(sign):
    assert check_commutator_form_exhaustive(3, 1, sign)


def test_commutator_examples():
    plus = ExtraspecialGroup(3, 1, PLUS)
    g = plus.element((1,), (0,), 0)
    h = plus.element((0,), (1,), 0)
    assert plus.commutator(g, h) == plus.element((0,), (0,), 2)
    for el in plus.elements():
        assert plus.commutator(el, el) == plus.identity


def test_commutators_agree_across_signs():
    plus, els = group_elements(3, 1, PLUS)
    minus, _ = group_elements(3, 1, MINUS)
    for g in els:
        for h in els:
            assert plus.commutator(g, h) == minus.commutator(g, h)


def test_exponent_plus_is_p():
    for p, d in [(3, 1), (5, 1), (3, 2)]:
        group = ExtraspecialGroup(p, d, PLUS)
        for g in group.elements():
            assert group.power(g, p) == group.identity
        assert max_order(p, d, PLUS) == p


def test_exponent_minus_is_p_squared():
    assert max_order(3, 1, MINUS) == 9
    assert max_order(5, 1, MINUS) == 25
    assert max_order(3, 2, MINUS) == 9


def test_exponent_minus_52_sampled():
    # 5^5 elements is large for an exhaustive scan; a fixed sample plus the
    # known order-p^2 generator pins the exponent.
    group = ExtraspecialGroup(5, 2, MINUS)
    els = list(group.elements())
    rng = random.Random(0)
    sample = [els[rng.randrange(len(els))] for _ in range(200)]
    orders = {group.order(g) for g in sample}
    gen = group.element((1, 0), (0, 0), 0)
    orders.add(group.order(gen))
    assert max(orders) == 25
    assert all(25 % o == 0 for o in orders)


def test_minus_generator_power_lands_on_center():
    for p in (3, 5, 7):
        group = ExtraspecialGroup(p, 1, MINUS)
        v = group.element((1,), (0,), 0)
        assert group.power(v, p) == group.element((0,), (0,), 1)


def test_minus_pth_power_lands_on_first_coordinate():
    # Under minus multiplication the p-th power of (a, b, 0) is central with
    # coordinate a_1: the carry fires once per wraparound of the first entry.
    for p, d in [(3, 1), (3, 2), (5, 2)]:
        group = ExtraspecialGroup(p, d, MINUS)
        for vec in itertools.islice(itertools.product(range(p), repeat=2 * d), 60):
            g = group.embed(vec)
            assert group.power(g, p) == group.element((0,) * d, (0,) * d, vec[0])


def test_power_zero_is_identity():
    group = ExtraspecialGroup(3, 1, MINUS)
    for g in group.elements():
        assert group.power(g, 0) == group.identity


def test_element_validation():
    group = ExtraspecialGroup(3, 2, PLUS)
    with pytest.raises(ValueError):
        group.element((1,), (0, 0), 0)
    with pytest.raises(ValueError):
        ExtraspecialGroup(3, 1, "other")
    with pytest.raises(ValueError):
        ExtraspecialGroup(3, 0, PLUS)


def test_rank_must_be_an_integer():
    # d = 1.5 built a group of size 81.0.
    for d in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            ExtraspecialGroup(3, d, PLUS)
    # A float key found the group held for d = 1.
    held = extraspecial_group(3, 1, PLUS)
    with pytest.raises(TypeError):
        extraspecial_group(3, 1.0, PLUS)
    with pytest.raises(TypeError):
        extraspecial_group(3.0, 1, PLUS)
    assert extraspecial_group(np.int64(3), np.int64(1), PLUS) is held
    assert ExtraspecialGroup(3, np.int64(2), PLUS).size == 3 ** 5
    for d in (2.0, 1.5, "2"):
        with pytest.raises(TypeError):
            HeisenbergGroup(d)
    with pytest.raises(ValueError):
        HeisenbergGroup(0)
    assert HeisenbergGroup(np.int64(2)).size == 2 ** 3


def test_element_refuses_float_coordinates():
    group = ExtraspecialGroup(3, 1, PLUS)
    with pytest.raises(TypeError):
        group.element((1.7,), (0,), 2.9)
    with pytest.raises(TypeError):
        group.element((1,), (0,), 2.0)
    with pytest.raises(TypeError):
        group.embed((1, 0.5))


def test_element_refuses_string_coordinates():
    group = ExtraspecialGroup(3, 1, PLUS)
    with pytest.raises(TypeError):
        group.element(("2",), (0,), 0)
    with pytest.raises(TypeError):
        group.embed(("2", 0))


def test_heisenberg_element_refuses_non_integers():
    group = HeisenbergGroup(2)
    with pytest.raises(TypeError):
        group.element((1.0, 0), 0)
    with pytest.raises(TypeError):
        group.element((1, "0"), 0)
    with pytest.raises(TypeError):
        group.element((1, 0), 0.5)


def test_element_takes_integer_types():
    group = ExtraspecialGroup(5, 1, MINUS)
    assert group.element((np.int64(7),), [True], np.uint8(9)) == group.element((2,), (1,), 4)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (5, 1)])
def test_ids_are_the_coordinates_in_order(p, d, sign):
    # Ids count the coordinates a_1..a_d, b_1..b_d, z with a_1 most
    # significant, the order of the cover's vertices.
    group = ExtraspecialGroup(p, d, sign)
    assert group.elements() == range(group.size)
    digits = list(itertools.product(range(p), repeat=2 * d + 1))
    assert [group.coordinates(g) for g in group.elements()] == [
        (t[:d], t[d: 2 * d], t[-1]) for t in digits]
    assert [group.element(t[:d], t[d: 2 * d], t[-1]) for t in digits] == list(group.elements())
    assert group.coordinates(group.identity) == ((0,) * d, (0,) * d, 0)
    assert all(group.embed(t[: 2 * d]) == group.element(t[:d], t[d: 2 * d], 0) for t in digits)


def test_ids_outside_the_group_are_refused():
    group = ExtraspecialGroup(3, 1, MINUS)
    for g in (-1, group.size, -group.size, 10 ** 30):
        for call in (group.coordinates, group.order, lambda g: group.power(g, 2)):
            with pytest.raises(ValueError, match="out of range"):
                call(g)
    with pytest.raises(TypeError):
        group.coordinates(1.0)
    with pytest.raises(TypeError):
        group.order("1")


@pytest.mark.parametrize("sign", SIGNS)
def test_construction_builds_no_tables(sign):
    # The product tables come with the first product, so a group at (13, 3),
    # 13^6 block pairs, is made in constant time.
    group = ExtraspecialGroup(13, 3, sign)
    assert "_tables" not in vars(group)
    assert group.coordinates(group.size - 1) == ((12,) * 3, (12,) * 3, 12)
    assert group.element((12,) * 3, (12,) * 3, 12) == group.size - 1
    small = ExtraspecialGroup(3, 1, sign)
    small.mul(1, 2)
    assert len(vars(small)["_tables"][0]) == 9


# ---------------------------------------------------------------- table arithmetic
# mul and inv read precomputed tables over ids; these oracles are the
# definitions they must agree with, on coordinates: the cocycle for mul, the
# closed form (-a, -b, a.b - z, less the carry of a_1 + (-a_1) for minus)
# for inv, and compositions of the two for power, order and commutator.

# Every odd supported p with p^(2d+1) <= 10^6, the cover cap.
SUPPORTED = [(p, d) for p in (3, 5, 7, 11, 13) for d in range(1, 6) if p ** (2 * d + 1) <= 10 ** 6]


@functools.lru_cache(maxsize=None)
def _group(p, d, sign):
    return ExtraspecialGroup(p, d, sign)


def _mul_oracle(group, g, h):
    p = group.p
    return ExtraspecialElement(tuple((x + y) % p for x, y in zip(g.a, h.a)),
                               tuple((x + y) % p for x, y in zip(g.b, h.b)),
                               (g.z + h.z + group.cocycle((g.a, g.b), (h.a, h.b))) % p)


def _inv_oracle(group, g):
    p = group.p
    z = -g.z + sum(x * y for x, y in zip(g.a, g.b))
    if group.sign == MINUS:
        z -= carry_int(g.a[0], (-g.a[0]) % p, p)
    return ExtraspecialElement(tuple(-x % p for x in g.a), tuple(-x % p for x in g.b), z % p)


def _powers_oracle(group, g):
    """g, g^2, ... up to the first power that is the identity, on coordinates."""
    identity = group.coordinates(group.identity)
    out = [g]
    while out[-1] != identity:
        out.append(_mul_oracle(group, out[-1], g))
    return out


def _commutator_oracle(group, g, h):
    mul = functools.partial(_mul_oracle, group)
    return mul(mul(mul(_inv_oracle(group, g), _inv_oracle(group, h)), g), h)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_mul_and_inv_match_oracles_exhaustive(p, d, sign):
    group, els = group_elements(p, d, sign)
    coords = [group.coordinates(g) for g in els]
    for g, cg in zip(els, coords):
        assert group.coordinates(group.inv(g)) == _inv_oracle(group, cg)
        for h, ch in zip(els, coords):
            assert group.coordinates(group.mul(g, h)) == _mul_oracle(group, cg, ch)


@pytest.mark.parametrize("sign", SIGNS)
def test_products_are_extraspecial_elements(sign):
    # mul, inv, power and commutator return ids, plain ints, whose
    # coordinates are the named tuple of two blocks and a residue.
    group = ExtraspecialGroup(5, 2, sign)
    g, h = group.element([1, 4], [2, 3], 1), group.element([3, 0], [4, 4], 2)
    for value in (group.mul(g, h), group.inv(g), group.power(g, 3), group.commutator(g, h)):
        assert type(value) is int and 0 <= value < group.size
        coords = group.coordinates(value)
        assert type(coords) is ExtraspecialElement
        assert coords == (coords.a, coords.b, coords.z)
        assert all(type(x) is tuple and len(x) == 2 for x in (coords.a, coords.b))
        assert type(coords.z) is int
    product = group.coordinates(group.mul(g, h))
    assert product.a == (4, 4) and product.b == (1, 2)
    commutator = group.coordinates(group.commutator(g, h))
    assert commutator == ((0, 0), (0, 0), commutator.z)


@st.composite
def _extraspecial_pair(draw):
    p, d = draw(st.sampled_from(SUPPORTED))
    group = _group(p, d, draw(st.sampled_from(SIGNS)))
    g, h = (draw(st.integers(0, group.size - 1)) for _ in range(2))
    return group, g, h


@settings(max_examples=300, deadline=None)
@given(_extraspecial_pair())
def test_mul_and_inv_match_oracles_sampled(case):
    group, g, h = case
    cg, ch = group.coordinates(g), group.coordinates(h)
    assert group.element(*cg) == g
    assert group.coordinates(group.mul(g, h)) == _mul_oracle(group, cg, ch)
    assert group.coordinates(group.inv(g)) == _inv_oracle(group, cg)
    assert group.mul(g, group.inv(g)) == group.identity


@settings(max_examples=300, deadline=None)
@given(_extraspecial_pair(), st.integers(0, 30))
def test_power_order_and_commutator_match_oracles_sampled(case, k):
    group, g, h = case
    cg, ch = group.coordinates(g), group.coordinates(h)
    powers = _powers_oracle(group, cg)
    assert group.order(g) == len(powers)
    # g^k is powers[k - 1] for 0 < k <= order; k = 0 and its multiples of
    # the order wrap to the last, the identity.
    assert group.coordinates(group.power(g, k)) == powers[k % len(powers) - 1]
    assert group.coordinates(group.commutator(g, h)) == _commutator_oracle(group, cg, ch)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_heisenberg_mul_and_inv_match_form_exhaustive(d):
    group = HeisenbergGroup(d)
    els = list(group.elements())
    for g in els:
        assert group.inv(g) == heisenberg_inv_by_form(group, g)
        for h in els:
            assert group.mul(g, h) == heisenberg_mul_by_form(group, g, h)


@st.composite
def _heisenberg_pair(draw):
    group = HeisenbergGroup(draw(st.integers(1, 12)))
    vec = st.lists(st.integers(0, 1), min_size=group.d, max_size=group.d)
    g, h = (group.element(draw(vec), draw(st.integers(0, 1))) for _ in range(2))
    return group, g, h


@settings(max_examples=300, deadline=None)
@given(_heisenberg_pair())
def test_heisenberg_mul_and_inv_match_form_sampled(case):
    group, g, h = case
    assert group.mul(g, h) == heisenberg_mul_by_form(group, g, h)
    assert group.inv(g) == heisenberg_inv_by_form(group, g)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.data())
def test_heisenberg_arrays_match_the_scalar_calls_and_the_form(d, data):
    # mul and inv on int64 arrays, element by element and broadcast, against
    # the scalar calls and the upper form on coordinates, up to 31-bit ids.
    group = HeisenbergGroup(d)
    n = data.draw(st.integers(1, 8))
    ids = st.lists(st.integers(0, group.size - 1), min_size=n, max_size=n)
    g, h = data.draw(ids), data.draw(ids)
    gs, hs = np.array(g, dtype=np.int64), np.array(h, dtype=np.int64)
    products = [group.mul(a, b) for a, b in zip(g, h)]
    assert products == [heisenberg_mul_by_form(group, a, b) for a, b in zip(g, h)]
    assert group.mul(gs, hs).tolist() == products
    inverses = [group.inv(a) for a in g]
    assert inverses == [heisenberg_inv_by_form(group, a) for a in g]
    assert group.inv(gs).tolist() == inverses
    table = group.mul(gs[:, None], hs)
    assert table.dtype == np.int64
    assert table.tolist() == [[group.mul(a, b) for b in h] for a in g]


def test_heisenberg_ids_and_coordinates():
    group = HeisenbergGroup(3)
    assert group.elements() == range(16) and group.identity == 0
    assert [group.element(*group.coordinates(g)) for g in group.elements()] == list(range(16))
    assert group.coordinates(group.element((1, 0, 1), 1)) == ((1, 0, 1), 1)
    assert group.element((1, 0, 0), 0) == 8 and group.element((3, -2, 0), 5) == 9
    for g in (-1, 16):
        with pytest.raises(ValueError, match="out of range"):
            group.coordinates(g)
    with pytest.raises(TypeError):
        group.coordinates(1.0)


def test_elements_hash_and_compare_by_value():
    group = ExtraspecialGroup(5, 2, MINUS)
    g = group.element((1, 2), (3, 4), 0)
    made = ExtraspecialElement((1, 2), (3, 4), 0)
    computed = group.mul(group.element((1, 0), (0, 0), 0), group.element((0, 2), (3, 4), 0))
    assert g == computed
    assert group.coordinates(g) == made == group.coordinates(computed) == ((1, 2), (3, 4), 0)
    assert len({group.coordinates(g), made, group.coordinates(computed)}) == 1
    assert g != group.element((1, 2), (3, 4), 1)
    coords = group.coordinates(g)
    assert (coords.a, coords.b, coords.z) == ((1, 2), (3, 4), 0)


# ---------------------------------------------------------------- Heisenberg


def test_heisenberg_form():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert upper_form(e1, e2) == 1
    assert upper_form(e2, e1) == 0
    assert upper_form(e1, e3) == 1
    assert upper_form(e1, e1) == 0


def test_heisenberg_mul_example():
    h = HeisenbergGroup(2)
    a = h.element((1, 0), 0)
    b = h.element((0, 1), 0)
    assert h.mul(a, b) == h.element((1, 1), 1)


def test_heisenberg_generator_commutators():
    for d in (2, 3, 4):
        h = HeisenbergGroup(d)
        gens = heisenberg_generators(h)
        central = h.element((0,) * d, 1)
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                comm = h.mul(h.mul(h.mul(gi, gj), h.inv(gi)), h.inv(gj))
                if i == j:
                    assert comm == h.identity
                else:
                    assert comm == central


def test_heisenberg_inverses():
    for d in (1, 2, 3):
        h = HeisenbergGroup(d)
        for g in h.elements():
            assert h.mul(g, h.inv(g)) == h.identity
            assert h.mul(h.inv(g), g) == h.identity


# ---------------------------------------------------------------- cocycle_check


def _kappa_fn(p, d, sign):
    group = ExtraspecialGroup(p, d, sign)

    def fn(u, v):
        return group.cocycle((u[:d], u[d:]), (v[:d], v[d:]))

    return fn


@pytest.mark.parametrize("sign", SIGNS)
def test_cocycle_check_exhaustive_pass(sign):
    res = cocycle_check(_kappa_fn(3, 1, sign), 3, 2)
    assert res.ok and res.exhaustive
    assert res.triples_checked == 3 ** 6
    assert res.witness is None


def test_cocycle_check_detects_perturbation():
    base = _kappa_fn(3, 1, PLUS)

    def broken(u, v):
        if u == (1, 2) and v == (2, 0):
            return (base(u, v) + 1) % 3
        return base(u, v)

    res = cocycle_check(broken, 3, 2)
    assert not res.ok
    a, b, c = res.witness
    # Recheck the witness against the identity directly.
    def add(x, y):
        return tuple((i + j) % 3 for i, j in zip(x, y))
    lhs = (broken(add(a, b), c) + broken(a, b)) % 3
    rhs = (broken(a, add(b, c)) + broken(b, c)) % 3
    assert lhs != rhs


@pytest.mark.parametrize("sign", SIGNS)
def test_cocycle_check_sampled_branch(sign):
    # 5^12 triples exceeds the exhaustive budget, forcing the seeded sample.
    res = cocycle_check(_kappa_fn(5, 2, sign), 5, 4)
    assert res.ok and not res.exhaustive
    assert res.triples_checked == 10 ** 5
