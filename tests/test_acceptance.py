"""Acceptance gate: every criterion in one place, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``.  Each test prints a single
PASS/FAIL line (past output capture) and then asserts, so the gate both
reads as a checklist and fails the build on any regression.  All checks are
exact; there are no tolerances anywhere.
"""

import random

import pytest

from superder import (
    Element,
    GradedWindow,
    SuperDerivation,
    TestSet,
    annihilator_basis,
    antisymmetry_sweep,
    derivation_coords,
    evaluation_matrix,
    globalize,
    homogeneity_check,
    jacobi_sweep,
    make_adversarial_oracle,
    make_honest_oracle,
    outer_derivation_defect_sweep,
)
from superder.algebra import KIND_G, KIND_I, KIND_L, KIND_Q
from superder.two_local import ADVERSARIAL_KINDS

from helpers import F, SVIR0, SVIR12, SW22, VIR, bv, dense_nullspace, el, labeled_dense

ALL_FAMILIES = (VIR, SVIR0, SVIR12, SW22)
ANCHORED_FAMILIES = (SVIR0, SVIR12, SW22)

GENERATOR_COEFFS = (F(-3), F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2), F(3))


@pytest.fixture
def report(capsys):
    def _report(ok, label):
        with capsys.disabled():
            print("%s %s" % ("PASS" if ok else "FAIL", label))
        assert ok, label
    return _report


def random_generator(family, seed):
    rng = random.Random(seed)
    pool = GradedWindow(F(5)).generators(family)
    chosen = rng.sample(pool, rng.randint(1, 4))
    inner = Element(family, ((b, rng.choice(GENERATOR_COEFFS)) for b in chosen))
    lam = F(rng.randint(-3, 3)) if family is SW22 else F(0)
    return SuperDerivation(family, inner, lam)


def test_01_bracket_laws(report):
    ok = True
    for family in ALL_FAMILIES:
        anti_violations, _ = antisymmetry_sweep(family, F(4))
        jacobi_violations, triples = jacobi_sweep(family, F(4))
        ok = ok and anti_violations == 0 and jacobi_violations == 0 and triples > 0
    report(ok, "bracket laws: anti-symmetry and Jacobi hold on every basis "
               "triple with |index| <= 4, in all four families")


def test_02_outer_derivation_is_a_derivation(report):
    violations, pairs = outer_derivation_defect_sweep(F(3))
    report(violations == 0 and pairs == 900,
           "outer derivation: zero Leibniz defect on all 900 sw22 basis "
           "pairs with |index| <= 3")


def test_03_odd_generator_annihilators_with_dense_cross_check(report):
    cases = [(SVIR0, [F(i) for i in range(-3, 4)]),
             (SVIR12, [F(m, 2) for m in range(-5, 6, 2)])]
    ok = True
    for family, indices in cases:
        for i in indices:
            window = GradedWindow(2 * abs(i) + 2)
            target = Element.basis(bv(family, KIND_G, i))
            space = annihilator_basis(target, window)
            expected = (SuperDerivation.ad(el(family, (KIND_L, 2 * i, 1))),)
            m = evaluation_matrix(target, window)
            dense = dense_nullspace(labeled_dense(m), len(m.col_labels))
            coords = [derivation_coords(d, window) for d in space.basis]
            ok = ok and space.basis == expected and coords == dense
    report(ok, "odd-generator annihilators in svir0 and svir12 are exactly "
               "span{ad(L[2i])}, confirmed by independent dense elimination")


def test_04_sw22_odd_generator_annihilators(report):
    ok = True
    for r in range(-2, 3):
        window = GradedWindow(F(2 * abs(r) + 2))
        space = annihilator_basis(Element.basis(bv(SW22, KIND_G, r)), window)
        expected = (SuperDerivation.ad(el(SW22, (KIND_L, 2 * r, 1))),
                    SuperDerivation.ad(el(SW22, (KIND_I, 2 * r, 1))),
                    SuperDerivation(SW22, Element.zero(SW22), F(1)))
        ok = ok and space.basis == expected
    report(ok, "sw22 odd-generator annihilators are exactly "
               "span{ad(L[2r]), ad(I[2r]), D} for r in -2..2")


def test_05_even_probe_annihilators(report):
    target = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
    coupled = SuperDerivation.ad(el(SW22, (KIND_L, 1, 1), (KIND_G, 1, F(-1, 2))))
    straight = SuperDerivation.ad(el(SW22, (KIND_L, 0, 1)))
    ok = True
    for w in (2, 3, 4):
        space = annihilator_basis(target, GradedWindow(F(w)))
        ok = ok and space.dimension == 4 * w + 4
        ok = ok and space.contains(straight) and space.contains(coupled)
        ok = ok and all(d.outer_lambda == 0 for d in space.basis)
    report(ok, "annihilator of I[0] + Q[0] has dimension 4W+4 for window "
               "W in {2,3,4}, contains ad(L[0]) and ad(L[1] - 1/2*G[1]), "
               "and excludes the outer direction")


def test_06_mixed_element_annihilators(report):
    ok = True
    for p in (-3, -1, 1, 3):
        target = el(SW22, (KIND_L, p, 1), (KIND_I, 2 * p, 1), (KIND_Q, 2 * p, 1))
        space = annihilator_basis(target, GradedWindow(F(3 * abs(p))))
        expected = (SuperDerivation.ad(target),
                    SuperDerivation.ad(el(SW22, (KIND_I, p, 1))))
        ok = ok and space.basis == expected
    report(ok, "annihilator of L[p] + I[2p] + Q[2p] is exactly "
               "span{ad(L[p] + I[2p] + Q[2p]), ad(I[p])} for p in "
               "{-3,-1,1,3}")


def test_07_honest_oracles_globalize(report):
    failures = []
    for family in ANCHORED_FAMILIES:
        for seed in range(100):
            d = random_generator(family, seed)
            oracle = make_honest_oracle(d, GradedWindow(F(4)), seed)
            cert = globalize(oracle, TestSet(GradedWindow(F(3)), 20, seed))
            ok = (cert.verdict == "pass"
                  and cert.candidate == d
                  and all(rec.got == d.apply(rec.element) for rec in cert.checks))
            if family is SW22:
                ok = ok and cert.mu == d.outer_lambda
            if not ok:
                failures.append((family.value, seed))
    report(not failures,
           "honest oracles: 100 random derivations per anchored family all "
           "globalize back to their generator (300 passing certificates)")


def test_08_adversarial_oracles_fail_with_witnesses(report):
    runs = [(kind, SVIR0, seed)
            for kind in ADVERSARIAL_KINDS for seed in range(20)]
    runs += [(kind, family, 0)
             for kind in ADVERSARIAL_KINDS for family in (SVIR12, SW22)]
    failures = []
    for kind, family, seed in runs:
        oracle = make_adversarial_oracle(kind, family)
        cert = globalize(oracle, TestSet(GradedWindow(F(3)), 20, seed))
        if cert.verdict != "fail" or cert.failure_witness is None:
            failures.append((kind, family.value, seed))
    squaring = make_adversarial_oracle("coefficient_square", SVIR0)
    sample = [(F(2), el(SVIR0, (KIND_L, 1, 1)))]
    if homogeneity_check(squaring, sample) != [False]:
        failures.append(("coefficient_square", "homogeneity", 0))
    report(not failures,
           "adversarial oracles: every certificate fails with a concrete "
           "witness, and coefficient squaring breaks homogeneity")


def test_09_certificates_are_deterministic(report):
    ok = True
    for family in ANCHORED_FAMILIES:
        def honest_run():
            d = random_generator(family, 23)
            oracle = make_honest_oracle(d, GradedWindow(F(4)), 23)
            return globalize(oracle, TestSet(GradedWindow(F(3)), 20, 23)).to_json()

        def adversarial_run():
            oracle = make_adversarial_oracle("shift_map", family)
            return globalize(oracle, TestSet(GradedWindow(F(3)), 20, 23)).to_json()

        ok = ok and honest_run() == honest_run()
        ok = ok and adversarial_run() == adversarial_run()
    report(ok, "certificates: byte-identical JSON when a run is repeated "
               "with the same seed")
