"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or -s to see the lines).
"""

import itertools
import json
import math
import random

import numpy as np
import pytest

from cyclecovers.cli import main as cli_main
from cyclecovers.convolution import GroupFunction, check_central_lift_identity, z2_carrier
from cyclecovers.covers import (
    cohen_tits_signing,
    connection_set,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    signed_double_cover,
    verify_cover,
)
from cyclecovers.gains import all_cycle_sums_nonzero, cover_from_gain
from cyclecovers.graphs import Graph, cycle_graph, girth, has_4cycle, has_cycle_of_length, hypercube
from cyclecovers.groups import MINUS, PLUS, SIGNS, ExtraspecialGroup, cocycle_check
from cyclecovers.spectra import (
    adjacency_matrix,
    hermitian_eigenvalues,
    twisted_adjacency,
)

from helpers import (
    carry_identity_exhaustive,
    check_associativity_exhaustive,
    check_center_exhaustive,
    check_commutator_form_exhaustive,
    check_inverses_exhaustive,
    cover,
    cube_cover,
    gain_graph,
    group_elements,
    max_order,
)
from oracles import brute_cycle_lengths, brute_girth, brute_has_4cycle, charpoly_eigenvalues


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_cover_certificates():
    cases = [(3, 1), (5, 1), (7, 1), (3, 2)]
    for (p, d), sign in itertools.product(cases, SIGNS):
        cm = cover(p, d, sign)
        assert verify_cover(cm) == p, (p, d, sign)
        assert not has_4cycle(cm.total)[0], (p, d, sign)
        assert modular_rank(connection_set(p, d), p) == 2 * d
        group = ExtraspecialGroup(p, d, sign)
        conn = lifted_connection(group)
        assert len(set(conn)) == 4 * d
        report = pairwise_noncommuting_check(group, conn[: 2 * d])
        assert report.ok and report.all_central_units
    _report(1, "fold = p, no 4-cycles, and the connection-set certificates "
               "for (3,1), (5,1), (7,1), (3,2), both signs")


def test_criterion_02_non_isomorphism():
    for p in (3, 5):
        group = ExtraspecialGroup(p, 1, MINUS)
        conn = lifted_connection(group)
        for g in conn:
            assert group.order(g) == p * p, (p, g)
        embedded = conn[:2]  # interleaved: the a-family element, then b-family
        landing_a = group.power(embedded[0], p)
        landing_b = group.power(embedded[1], p)
        assert landing_a == group.element((0,), (0,), 1)
        assert landing_b == group.element((0,), (0,), 2)
        assert has_cycle_of_length(cover(p, 1, PLUS).total, p)[0]
        assert not has_cycle_of_length(cover(p, 1, MINUS).total, p)[0]
    _report(2, "order p^2 with the stated central landings for the minus "
               "connection, p-cycles present iff sign is plus, at (3,1), (5,1)")


def test_criterion_03_two_fold_covers_of_the_cube():
    for d in range(1, 7):
        signed = signed_double_cover(cohen_tits_signing(d))
        cayley_form = cube_cover(d)
        for cm in (signed, cayley_form):
            assert verify_cover(cm) == 2, d
            assert not has_4cycle(cm.total)[0], d
            assert cm.base == hypercube(d)
        s1 = np.array(hermitian_eigenvalues(adjacency_matrix(signed.total)).eigenvalues)
        s2 = np.array(hermitian_eigenvalues(adjacency_matrix(cayley_form.total)).eigenvalues)
        assert np.max(np.abs(s1 - s2)) < 1e-8, d
    cm3 = cube_cover(3)
    assert cm3.total.n == 16
    assert girth(cm3.total) == 6
    _report(3, "both constructions are 2-fold 4-cycle-free covers of the cube "
               "for d = 1..6 with matching spectra; d = 3 has 16 vertices, girth 6")


def test_criterion_04_huang_spectrum():
    from cyclecovers.convolution import twisted_operator_matrix

    for d in range(1, 6):
        root = math.sqrt(d)
        expected = np.array([root] * (2 ** (d - 1)) + [-root] * (2 ** (d - 1)))
        signing = hermitian_eigenvalues(cohen_tits_signing(d).entries.astype(float))
        operator = hermitian_eigenvalues(twisted_operator_matrix(d))
        assert np.max(np.abs(np.array(signing.eigenvalues) - expected)) < 1e-8
        assert np.max(np.abs(np.array(operator.eigenvalues) - expected)) < 1e-8
    _report(4, "the signing and the twisted convolution operator both have "
               "spectrum +-sqrt(d) with multiplicity 2^(d-1), d <= 5")


def test_criterion_05_degree_bound_thresholds(capsys):
    code = cli_main(["bound", "--p", "3", "--dims", "2"])
    out9 = capsys.readouterr().out
    assert code == 0
    doc9 = json.loads(out9)
    best3 = doc9["best"]["3"]
    assert best3["size"] == 4 and best3["sign"] == "minus"
    assert doc9["per_sign_best"]["minus"]["3"]["size"] == 4

    code = cli_main(["bound", "--p", "3", "--dims", "4"])
    out81 = capsys.readouterr().out
    assert code == 0
    doc81 = json.loads(out81)
    # The plus cover attains the degree-4 threshold at size 46 exactly.
    assert doc81["per_sign_best"]["plus"]["4"]["size"] == 46
    # The minus cover does strictly better; the global best records it.
    assert doc81["best"]["4"]["size"] == 37 and doc81["best"]["4"]["sign"] == "minus"
    with capsys.disabled():
        _report(5, "degree >= 3 at size 4 on C_3^2 (minus cover) and "
                   "degree >= 4 at size 46 on C_3^4 (plus cover), integer "
                   "thresholds exact; the minus cover improves the latter to 37")


def test_criterion_06_spectral_decomposition():
    for p, d in [(3, 1), (3, 2), (5, 1)]:
        for sign in SIGNS:
            cm = cover(p, d, sign)
            gg = gain_graph(p, d, sign)
            full = np.sort(np.array(
                hermitian_eigenvalues(adjacency_matrix(cm.total)).eigenvalues))
            parts = np.sort(np.concatenate([
                hermitian_eigenvalues(twisted_adjacency(gg, k)).eigenvalues
                for k in range(p)
            ]))
            assert np.max(np.abs(full - parts)) < 1e-8, (p, d, sign)
    _report(6, "cover spectrum equals the multiset union of the twisted "
               "spectra to 1e-8 at (3,1), (3,2), (5,1), both signs")


def test_criterion_07_gain_graph_fidelity():
    for p, d in [(3, 1), (3, 2)]:
        for sign in SIGNS:
            gm = cover_from_gain(gain_graph(p, d, sign))
            cm = cover(p, d, sign)
            assert gm.total.edge_set() == cm.total.edge_set(), (p, d, sign)
    gg = gain_graph(3, 1, MINUS)
    for length in (3, 4):
        ok, wit = all_cycle_sums_nonzero(gg, length)
        assert ok, (length, wit)
    _report(7, "gain covers equal the Cayley covers edge-for-edge at (3,1) "
               "and (3,2), both signs; all 3- and 4-cycle gain sums nonzero "
               "for the minus labels on C_3^2")


def test_criterion_08_algebraic_exhaustives():
    for sign in SIGNS:
        group = ExtraspecialGroup(3, 1, sign)

        def kappa(u, v, group=group):
            return group.cocycle((u[:1], u[1:]), (v[:1], v[1:]))

        res = cocycle_check(kappa, 3, 2)
        assert res.ok and res.exhaustive
        assert check_associativity_exhaustive(3, 1, sign)
        assert check_inverses_exhaustive(3, 1, sign)
        assert check_center_exhaustive(3, 1, sign)
        assert check_commutator_form_exhaustive(3, 1, sign)
    assert max_order(3, 1, PLUS) == 3
    assert max_order(3, 1, MINUS) == 9
    for p in (2, 3, 5, 7, 11, 13):
        assert carry_identity_exhaustive(p)
    _report(8, "cocycle condition, associativity, inverses, center, "
               "commutator form, and exponents exhaustive at p = 3, d = 1; "
               "carry identity exhaustive for p <= 13")


def test_criterion_09_convolution_identities():
    for d in (1, 2, 3):
        carrier = z2_carrier(d)
        for x in carrier:
            for y in carrier:
                ok, factor = check_central_lift_identity(
                    GroupFunction.delta(carrier, x), GroupFunction.delta(carrier, y))
                assert ok and factor == 2, (d, x, y)
    carrier = z2_carrier(4)
    rng = random.Random(0)
    for _ in range(100):
        f = GroupFunction(carrier, [rng.randrange(-3, 4) for _ in carrier])
        g = GroupFunction(carrier, [rng.randrange(-3, 4) for _ in carrier])
        ok, factor = check_central_lift_identity(f, g)
        assert ok and factor == 2
    _report(9, "the lift intertwines twisted convolution exactly (with the "
               "center-order factor 2): delta bases d <= 3, 100 random pairs d = 4")


def _oracle_corpus():
    graphs = [
        cycle_graph(3), cycle_graph(4), cycle_graph(5), cycle_graph(7),
        Graph(6, [(i, i + 1) for i in range(5)]),
        Graph(1, []),
        hypercube(3),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        Graph(4, list(itertools.combinations(range(4), 2))),
        Graph(6, [(i, j + 3) for i in range(3) for j in range(3)]),
    ]
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randrange(5, 13)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graphs.append(Graph(n, edges))
    return graphs


def test_criterion_10_oracle_equivalences():
    for g in _oracle_corpus():
        assert girth(g, cap=13) == brute_girth(g)
        assert has_4cycle(g)[0] == brute_has_4cycle(g)
        lengths = brute_cycle_lengths(g)
        for length in range(3, min(13, max(g.n, 3)) + 1):
            assert has_cycle_of_length(g, length)[0] == (length in lengths)
    rng = random.Random(23)
    for n in (2, 5, 9, 14, 20):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randrange(-3, 4)
        got = np.array(hermitian_eigenvalues(np.array(m, dtype=float)).eigenvalues)[::-1]
        want = charpoly_eigenvalues(np.array(m))
        assert np.max(np.abs(got - want)) < 1e-8
    for n in (3, 6, 10):
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                re[i][j] = re[j][i] = rng.randrange(-2, 3)
                if i != j:
                    im[i][j] = rng.randrange(-2, 3)
                    im[j][i] = -im[i][j]
        mat = np.array(re, dtype=complex) + 1j * np.array(im)
        got = np.array(hermitian_eigenvalues(mat).eigenvalues)[::-1]
        want = charpoly_eigenvalues(mat)
        assert np.max(np.abs(got - want)) < 1e-8
    _report(10, "girth, 4-cycle, and cycle-length scans agree with brute "
                "enumeration on the corpus; the eigensolver matches exact "
                "characteristic-polynomial roots to 1e-8 up to size 20")
