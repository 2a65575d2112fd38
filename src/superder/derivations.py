"""Superderivations in inner-plus-outer normal form, and Leibniz defects.

A superderivation is stored as an inner part (an element acting through the
adjoint map) plus a rational multiple of the distinguished outer derivation
of the super W(2,2) algebra.  That outer derivation fixes every I_m, Q_r and
the central charge C2, and kills L_m, G_r and C1; no other family admits a
nonzero outer part.  Annihilators are solved in the coordinates
``{basis vector: c, OUTER_TAG: lambda}`` of ``SuperDerivation.coords``.

``RawLinearMap`` is a finite table from basis vectors to elements, extended
linearly.  It exists for maps that are not superderivations: adversarial
oracle responses and inputs to ``leibniz_defect``.  Both kinds of map are
evaluated through the same ``apply(x)`` method, and ``leibniz_defect`` reads
the parity components of either one from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Mapping, Tuple, Union

from .algebra import (
    KIND_C2,
    KIND_I,
    KIND_Q,
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    accumulate_bracket,
    bracket,
    parity_decompose,
    reduced_terms,
)

_OUTER_FIXED_KINDS = frozenset((KIND_I, KIND_Q, KIND_C2))

# Coordinate tag of the outer derivation direction D.
OUTER_TAG = "D"


def has_outer(family: AlgebraFamily) -> bool:
    """Whether the family has the outer derivation direction D (sw22 only)."""
    return family is AlgebraFamily.SW22


def outer_action(x: Element) -> Element:
    """Action of the distinguished outer derivation on an element.

    Fixes I_m, Q_r and C2 and kills everything else.  Only sw22 has those
    kinds, so for the other families the result is zero.
    """
    return Element._canonical(x.family, {b: c for b, c in x.terms.items()
                                         if b.kind in _OUTER_FIXED_KINDS})


@dataclass(frozen=True)
class SuperDerivation:
    """Normal form of a superderivation: ad(inner) + outer_lambda * D.

    The inner element is stored without central terms (ad of a central
    element is zero, so they are stripped on construction).  A nonzero
    ``outer_lambda`` is rejected outside the sw22 family.
    """

    family: AlgebraFamily
    inner: Element
    outer_lambda: Fraction = Fraction(0)

    def __post_init__(self):
        if self.inner.family is not self.family:
            raise FamilyMismatchError("inner element belongs to a different family")
        lam = Fraction(self.outer_lambda)
        if lam != 0 and not has_outer(self.family):
            raise ValueError("only the sw22 family has an outer derivation direction")
        if any(b.is_central for b in self.inner.terms):
            stripped = Element(self.family, ((b, c) for b, c in self.inner.terms.items()
                                             if not b.is_central))
            object.__setattr__(self, "inner", stripped)
        object.__setattr__(self, "outer_lambda", lam)

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
        out = bracket(self.inner, x)
        if self.outer_lambda:
            out = out + self.outer_lambda * outer_action(x)
        return out

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
    """The derivation sum of c * d over (coefficient, derivation) pairs."""
    pairs = tuple(pairs)
    if any(d.family is not family for _, d in pairs):
        raise FamilyMismatchError("cannot combine derivations of different families")
    inner = Element(family, ((b, c * x) for c, d in pairs for b, x in d.inner.terms.items()))
    return SuperDerivation(family, inner, sum(c * d.outer_lambda for c, d in pairs))


@dataclass
class RawLinearMap:
    """A finite basis-vector table extended linearly; not a derivation.

    Zero images are dropped and the table is kept in canonical key order, so
    equal maps compare equal and serialise identically.
    """

    family: AlgebraFamily
    table: Dict[BasisVector, Element] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for bv, img in sorted(self.table.items(), key=lambda t: t[0].sort_key()):
            if bv.family is not self.family or img.family is not self.family:
                raise FamilyMismatchError("raw map table mixes families")
            if not img.is_zero:
                clean[bv] = img
        self.table = clean

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

    The parity-p component d_p sends a homogeneous z_r to the parity-(p + r)
    part of d(z_r), so it is read from ``d.apply`` for any linear map.  The
    components of d sum to d, so the terms [d_p(x_q), y] sum to [d(x), y].
    """
    family = x.family
    if y.family is not family:
        raise FamilyMismatchError("defect arguments must share one family")
    acc = {w: [c.numerator, c.denominator]
           for w, c in d.apply(bracket(x, y)).terms.items()}
    accumulate_bracket(acc, ((b, -c) for b, c in d.apply(x).terms.items()),
                       y.terms.items())
    dy = [d.apply(yr) for yr in parity_decompose(y)]
    for p in (0, 1):
        # d_p(y) as (vector, coefficient) pairs, summed over the parts y_r.
        dp_y = [(w, c) for r in (0, 1) for w, c in dy[r].terms.items()
                if w.parity == (p + r) % 2]
        # One term of x at a time, so q is the parity of its basis vector.
        for b, c in x.terms.items():
            sign = -1 if (p and b.parity) else 1
            accumulate_bracket(acc, ((b, -sign * c),), dp_y)
    return Element._canonical(family, reduced_terms(acc))
