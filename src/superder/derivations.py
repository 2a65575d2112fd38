"""Superderivations in inner-plus-outer normal form, and Leibniz defects.

A superderivation is stored as an inner part (an element acting through the
adjoint map) plus a rational multiple of the distinguished outer derivation
of the super W(2,2) algebra.  That outer derivation fixes every I_m, Q_r and
the central charge C2, and kills L_m, G_r and C1; no other family admits a
nonzero outer part.  Both solves of ``annihilator`` read derivations as
``SuperDerivation.coords``, ``{basis vector: c, OUTER_TAG: lambda}``.

``RawLinearMap`` is a finite table from basis vectors to elements, extended
linearly.  It exists for maps that are not superderivations: adversarial
oracle responses and inputs to ``leibniz_defect``.  Both kinds of map are
evaluated through the same ``apply(x)`` method, and ``leibniz_defect`` reads
either one through it alone, with four ``bracket`` calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, Hashable, Iterable, Mapping, Tuple, Union

from .algebra import (
    FIXED_KINDS,
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    _KIND_RANK,
    _Record,
    bracket,
    exact,
)

_FIXED_RANKS = frozenset(_KIND_RANK[k] for k in FIXED_KINDS)

# Coordinate tag of the outer derivation direction D.
OUTER_TAG = "D"


def outer_action(x: Element) -> Element:
    """Action of the distinguished outer derivation on an element.

    Fixes the kinds of ``algebra.FIXED_KINDS`` (I_m, Q_r, C2) and kills the
    rest.  Only sw22 has those kinds, so elsewhere the result is zero.
    """
    return Element._canonical(x.family, {b: c for b, c in x.terms.items()
                                         if b[0] in _FIXED_RANKS})


class SuperDerivation(_Record):
    """Normal form of a superderivation: ad(inner) + outer_lambda * D.

    The inner element is stored without central terms (ad of a central
    element is zero, so they are stripped on construction).  A nonzero
    ``outer_lambda`` is rejected outside the sw22 family.
    """

    __slots__ = ("family", "inner", "outer_lambda")

    def __init__(self, family: AlgebraFamily, inner: Element, outer_lambda=Fraction(0)):
        if inner.family is not family:
            raise FamilyMismatchError("inner element belongs to a different family")
        lam = outer_lambda if type(outer_lambda) is Fraction else exact(outer_lambda)
        if lam != 0 and not family.has_outer:
            raise ValueError("only the sw22 family has an outer derivation direction")
        if any(b.is_central for b in inner.terms):
            inner = Element(family, ((b, c) for b, c in inner.terms.items()
                                     if not b.is_central))
        super().__init__(family, inner, lam)

    @classmethod
    def zero(cls, family: AlgebraFamily) -> "SuperDerivation":
        return cls(family, Element.zero(family))

    @classmethod
    def ad(cls, inner: Element) -> "SuperDerivation":
        return cls(inner.family, inner)

    @classmethod
    def from_coords(cls, family: AlgebraFamily,
                    coords: Mapping[Hashable, Fraction]) -> "SuperDerivation":
        """The derivation with the given coordinates; inverse of ``coords``."""
        inner = dict(coords)
        lam = inner.pop(OUTER_TAG, 0)
        return cls(family, Element(family, inner), lam)

    def coords(self) -> Dict[Hashable, Fraction]:
        """Sparse coordinates: the inner terms, then ``OUTER_TAG`` when lambda != 0."""
        out: Dict[Hashable, Fraction] = dict(self.inner.terms)
        if self.outer_lambda:
            out[OUTER_TAG] = self.outer_lambda
        return out

    @property
    def is_zero(self) -> bool:
        return self.inner.is_zero and self.outer_lambda == 0

    def apply(self, x: Element) -> Element:
        """[inner, x] + lambda * D(x).  The terms lambda * c of x's I, Q and C2
        terms start the bracket's int-pair sum, so each term is reduced once."""
        n, d = self.outer_lambda.numerator, self.outer_lambda.denominator
        fixed = [(b, n * c.numerator, d * c.denominator)
                 for b, c in x.terms.items() if b[0] in _FIXED_RANKS] if n else ()
        return bracket(self.inner, x, fixed)

    def __add__(self, other: "SuperDerivation") -> "SuperDerivation":
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        return _combination(self.family, ((1, self), (1, other)))

    def __sub__(self, other: "SuperDerivation") -> "SuperDerivation":
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        return _combination(self.family, ((1, self), (-1, other)))

    def __mul__(self, scalar) -> "SuperDerivation":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return _combination(self.family, ((scalar, self),))

    __rmul__ = __mul__

    def __neg__(self) -> "SuperDerivation":
        return _combination(self.family, ((-1, self),))


def _combination(family: AlgebraFamily,
                 pairs: Iterable[Tuple[Union[int, Fraction], SuperDerivation]]
                 ) -> SuperDerivation:
    """The derivation sum of c * d over (coefficient, derivation) pairs, built
    in one ``Element``: pairs with c = 0 are skipped and c = 1 takes d's terms."""
    pairs = tuple(pairs)
    if any(d.family is not family for _, d in pairs):
        raise FamilyMismatchError("cannot combine derivations of different families")
    inner = Element(family, chain.from_iterable(
        d.inner.terms.items() if c == 1 else ((b, c * x) for b, x in d.inner.terms.items())
        for c, d in pairs if c))
    return SuperDerivation(family, inner, sum(c * d.outer_lambda for c, d in pairs
                                              if c and d.outer_lambda))


class RawLinearMap(_Record):
    """A finite basis-vector table extended linearly; not a derivation.

    Zero images are dropped and the table is kept in canonical key order, so
    equal maps compare equal and serialise identically.
    """

    __slots__ = ("family", "table")

    def __init__(self, family: AlgebraFamily, table: Dict[BasisVector, Element] = {}):
        if any(v.family is not family or e.family is not family for v, e in table.items()):
            raise FamilyMismatchError("raw map table mixes families")
        super().__init__(family, {v: e for v, e in sorted(table.items()) if not e.is_zero})

    def apply(self, x: Element) -> Element:
        return Element(self.family, ((b, c * ic) for bv, c in x.terms.items()
                                     if bv in self.table
                                     for b, ic in self.table[bv].terms.items()))


MapLike = Union[SuperDerivation, RawLinearMap]


def leibniz_defect(d: MapLike, x: Element, y: Element) -> Element:
    """How far a linear map is from satisfying the graded Leibniz rule.

    Computes d([x, y]) minus the sum, over homogeneous components d_p of d
    and x_q of x, of [d_p(x_q), y] + (-1)^{pq} [x_q, d_p(y)].  The result is
    identically zero exactly when d is a superderivation on the span of the
    inputs.

    The components of d sum to d, so the terms [d_p(x_q), y] sum to
    [d(x), y] and the terms [x_0, d_p(y)] to [x_0, d(y)].  The terms
    (-1)^p [x_1, d_p(y)] sum to [x_1, (d_0 - d_1)(y)], and d_0 - d_1 is
    sigma d sigma, where the parity involution sigma negates odd terms.  So
    d is read through ``apply`` alone, for any linear map.
    """
    family = x.family
    if y.family is not family:
        raise FamilyMismatchError("defect arguments must share one family")
    x0, x1 = (Element._canonical(family, {b: c for b, c in x.terms.items()
                                          if b.parity == q}) for q in (0, 1))
    rhs = (bracket(d.apply(x), y), bracket(x0, d.apply(y)),
           bracket(x1, _sigma(d.apply(_sigma(y)))))
    return Element(family, chain(d.apply(bracket(x, y)).terms.items(),
                                 ((b, -c) for e in rhs for b, c in e.terms.items())))


def _sigma(x: Element) -> Element:
    """The parity involution: odd terms negated, even terms kept."""
    return Element._canonical(x.family, {b: -c if b.parity else c
                                         for b, c in x.terms.items()})
