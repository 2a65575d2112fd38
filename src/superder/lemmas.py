"""Named verification suites and whole-family structure sweeps.

The sweeps exhaustively confirm super anti-symmetry and the graded Jacobi
identity over a bounded index range, and the Leibniz rule for the
distinguished outer derivation of sw22.  The named suites reproduce the
annihilator facts that drive globalization: annihilators of single odd
generators, of even-plus-odd probe elements, and of mixed even elements,
each with an exact predicted basis or dimension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .algebra import (
    KIND_G,
    KIND_I,
    KIND_L,
    KIND_Q,
    AlgebraFamily,
    BasisVector,
    Element,
    accumulate_bracket,
    bracket_terms,
)
from .annihilator import GradedWindow, annihilator_basis
from .derivations import OUTER_TAG, SuperDerivation, leibniz_defect
from .expr import fraction_json


def antisymmetry_sweep(family: AlgebraFamily, bound) -> Tuple[int, int]:
    """Count violations of [u,v] = -(-1)^{|u||v|} [v,u] over basis pairs."""
    vecs = GradedWindow(Fraction(bound)).basis_vectors(family)
    violations = 0
    pairs = 0
    for u in vecs:
        for v in vecs:
            pairs += 1
            # [u,v] + (-1)^{|u||v|} [v,u] must vanish.
            sign = -1 if (u.parity and v.parity) else 1
            acc = accumulate_bracket({}, ((u, 1),), ((v, 1),))
            accumulate_bracket(acc, ((v, sign),), ((u, 1),))
            if any(acc.values()):
                violations += 1
    return violations, pairs


def jacobi_sweep(family: AlgebraFamily, bound) -> Tuple[int, int]:
    """Count violations of the graded Jacobi identity over basis triples.

    Uses the ad-Leibniz form [u,[v,w]] = [[u,v],w] + (-1)^{|u||v|} [v,[u,w]],
    accumulating the difference of the two sides into one dict.
    """
    vecs = GradedWindow(Fraction(bound)).basis_vectors(family)
    violations = 0
    triples = 0
    for u in vecs:
        u_one = ((u, 1),)
        for v in vecs:
            # v with the coefficient -(-1)^{|u||v|} of its term below.
            v_signed = ((v, 1 if (u.parity and v.parity) else -1),)
            uv = bracket_terms(u, v)
            for w in vecs:
                triples += 1
                acc = accumulate_bracket({}, u_one, bracket_terms(v, w))
                accumulate_bracket(acc, uv, ((w, -1),))
                accumulate_bracket(acc, v_signed, bracket_terms(u, w))
                if any(acc.values()):
                    violations += 1
    return violations, triples


def outer_derivation_defect_sweep(bound=3) -> Tuple[int, int]:
    """Leibniz defects of the sw22 outer derivation over basis pairs."""
    family = AlgebraFamily.SW22
    outer = SuperDerivation.from_coords(family, {OUTER_TAG: 1})
    vecs = GradedWindow(Fraction(bound)).basis_vectors(family)
    violations = 0
    pairs = 0
    for u in vecs:
        xu = Element.basis(u)
        for v in vecs:
            pairs += 1
            if not leibniz_defect(outer, xu, Element.basis(v)).is_zero:
                violations += 1
    return violations, pairs


# -- named suites ---------------------------------------------------------------


def _ad(family: AlgebraFamily, kind: str, index: Fraction) -> SuperDerivation:
    return SuperDerivation.ad(Element.basis(BasisVector(family, kind, index)))


def _basis_case(key: str, value: Fraction, target: Element, window: GradedWindow,
                expected: Tuple[SuperDerivation, ...], **extra) -> dict:
    """One case of a suite that predicts the exact annihilator basis."""
    space = annihilator_basis(target, window)
    return {key: fraction_json(value), "dim": space.dimension,
            "pass": space.basis == expected, **extra}


def _odd_generator_annihilators() -> List[dict]:
    """Annihilator of one odd generator G_i is spanned by ad(L_{2i}) alone,
    in both super Virasoro sectors."""
    plans = (
        (AlgebraFamily.SVIR0, [Fraction(i) for i in range(-3, 4)]),
        (AlgebraFamily.SVIR12, [Fraction(m, 2) for m in range(-5, 6, 2)]),
    )
    return [_basis_case("i", i, Element.basis(BasisVector(family, KIND_G, i)),
                        GradedWindow(2 * abs(i) + 2), (_ad(family, KIND_L, 2 * i),),
                        family=family.value)
            for family, indices in plans for i in indices]


def _sw22_odd_generator_annihilators() -> List[dict]:
    """In sw22 the annihilator of G_r gains ad(I_{2r}) and the outer direction."""
    family = AlgebraFamily.SW22
    outer = SuperDerivation.from_coords(family, {OUTER_TAG: 1})
    return [_basis_case("r", r, Element.basis(BasisVector(family, KIND_G, r)),
                        GradedWindow(2 * abs(r) + 2),
                        (_ad(family, KIND_L, 2 * r), _ad(family, KIND_I, 2 * r), outer))
            for r in map(Fraction, range(-2, 3))]


def _even_probe_annihilators() -> List[dict]:
    """The annihilator of I_0 + Q_0 in a window of bound W has dimension
    4W + 4, contains ad(L_0) and ad(L_1 - 1/2 G_1), and meets the outer
    direction trivially."""
    family = AlgebraFamily.SW22
    target = (Element.basis(BasisVector(family, KIND_I, Fraction(0)))
              + Element.basis(BasisVector(family, KIND_Q, Fraction(0))))
    ad_l0 = _ad(family, KIND_L, Fraction(0))
    coupled = SuperDerivation.ad(Element(family, (
        (BasisVector(family, KIND_L, Fraction(1)), Fraction(1)),
        (BasisVector(family, KIND_G, Fraction(1)), Fraction(-1, 2)),
    )))
    cases = []
    for w in (2, 3, 4):
        space = annihilator_basis(target, GradedWindow(Fraction(w)))
        ok = (space.dimension == 4 * w + 4
              and ad_l0 in space.basis
              and coupled in space.basis
              and all(b.outer_lambda == 0 for b in space.basis))
        cases.append({"bound": w, "dim": space.dimension,
                      "expected_dim": 4 * w + 4, "pass": ok})
    return cases


def _mixed_element_annihilators() -> List[dict]:
    """For odd p, the annihilator of L_p + I_{2p} + Q_{2p} is spanned by
    ad of the element itself and ad(I_p)."""
    family = AlgebraFamily.SW22
    cases = []
    for p in map(Fraction, (-3, -1, 1, 3)):
        target = Element(family, ((BasisVector(family, KIND_L, p), 1),
                                  (BasisVector(family, KIND_I, 2 * p), 1),
                                  (BasisVector(family, KIND_Q, 2 * p), 1)))
        cases.append(_basis_case("p", p, target, GradedWindow(3 * abs(p)),
                                 (SuperDerivation.ad(target), _ad(family, KIND_I, p))))
    return cases


def _outer_derivation_is_derivation() -> List[dict]:
    """The outer direction satisfies the graded Leibniz rule exhaustively."""
    violations, pairs = outer_derivation_defect_sweep(3)
    return [{"bound": 3, "pairs": pairs, "violations": violations,
             "pass": violations == 0}]


_LEMMA_RUNNERS = {
    "lemma3.3": _odd_generator_annihilators,
    "lemma4.4i": _sw22_odd_generator_annihilators,
    "lemma4.4ii": _even_probe_annihilators,
    "lemma4.7": _mixed_element_annihilators,
    "lemma4.1-derivation": _outer_derivation_is_derivation,
}

LEMMA_NAMES = tuple(_LEMMA_RUNNERS)


def run_lemma(name: str) -> dict:
    """Run one named suite and return its JSON-ready report."""
    try:
        runner = _LEMMA_RUNNERS[name]
    except KeyError:
        raise ValueError("unknown suite %r (expected one of %s)"
                         % (name, ", ".join(LEMMA_NAMES))) from None
    cases = runner()
    return {"name": name, "cases": cases,
            "verdict": "pass" if all(c["pass"] for c in cases) else "fail"}
