"""Superderivations in inner-plus-outer normal form, and Leibniz defects.

A superderivation is stored as an inner part (an element acting through the
adjoint map) plus a rational multiple of the distinguished outer derivation
of the super W(2,2) algebra.  That outer derivation fixes every I_m, Q_r and
the central charge C2, and kills L_m, G_r and C1; no other family admits a
nonzero outer part.

``RawLinearMap`` is an escape hatch: a finite table from basis vectors to
elements, extended linearly.  It exists so that maps which are not
superderivations can be fed to ``leibniz_defect`` and used as adversarial
oracle responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple, Union

from .algebra import (
    KIND_C2,
    KIND_I,
    KIND_Q,
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    bracket,
    parity_decompose,
)

_OUTER_FIXED_KINDS = frozenset((KIND_I, KIND_Q, KIND_C2))


def outer_action(x: Element) -> Element:
    """Action of the distinguished outer derivation on an element.

    Fixes I_m, Q_r and C2 and kills everything else.  For families other
    than sw22 the result is zero.
    """
    if x.family is not AlgebraFamily.SW22:
        return Element.zero(x.family)
    return Element(x.family, ((b, c) for b, c in x.terms.items()
                              if b.kind in _OUTER_FIXED_KINDS))


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
        if lam != 0 and self.family is not AlgebraFamily.SW22:
            raise ValueError("only the sw22 family has an outer derivation direction")
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
        if other.family is not self.family:
            raise FamilyMismatchError("cannot add derivations of different families")
        return SuperDerivation(self.family, self.inner + other.inner,
                               self.outer_lambda + other.outer_lambda)

    def __sub__(self, other: "SuperDerivation") -> "SuperDerivation":
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        if other.family is not self.family:
            raise FamilyMismatchError("cannot subtract derivations of different families")
        return SuperDerivation(self.family, self.inner - other.inner,
                               self.outer_lambda - other.outer_lambda)

    def __mul__(self, scalar) -> "SuperDerivation":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return SuperDerivation(self.family, self.inner * scalar,
                               self.outer_lambda * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SuperDerivation":
        return self * -1


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

    def value(self, x: Element) -> Element:
        out = Element.zero(self.family)
        for bv, c in x.terms.items():
            img = self.table.get(bv)
            if img is not None:
                out = out + c * img
        return out


MapLike = Union[SuperDerivation, RawLinearMap]


def evaluate(m: MapLike, x: Element) -> Element:
    """Value of either a superderivation or a raw linear map on an element."""
    if isinstance(m, SuperDerivation):
        return m.apply(x)
    return m.value(x)


def derivation_parity_components(d: SuperDerivation) -> Tuple[SuperDerivation, SuperDerivation]:
    """Even and odd homogeneous components (in that order).

    The outer direction is even, so it travels with the even component.
    """
    inner_even, inner_odd = parity_decompose(d.inner)
    even = SuperDerivation(d.family, inner_even, d.outer_lambda)
    odd = SuperDerivation(d.family, inner_odd)
    return even, odd


def _homogeneous_component_maps(m: MapLike) -> List[Tuple[int, Callable[[Element], Element]]]:
    """The map split into parity-homogeneous linear maps, as (parity, fn)."""
    if isinstance(m, SuperDerivation):
        even, odd = derivation_parity_components(m)
        comps = []
        if not even.is_zero:
            comps.append((0, even.apply))
        if not odd.is_zero:
            comps.append((1, odd.apply))
        return comps
    even_table: Dict[BasisVector, Element] = {}
    odd_table: Dict[BasisVector, Element] = {}
    for bv, img in m.table.items():
        img_even, img_odd = parity_decompose(img)
        same, flip = (img_even, img_odd) if bv.parity == 0 else (img_odd, img_even)
        if not same.is_zero:
            even_table[bv] = same
        if not flip.is_zero:
            odd_table[bv] = flip
    comps = []
    if even_table:
        comps.append((0, RawLinearMap(m.family, even_table).value))
    if odd_table:
        comps.append((1, RawLinearMap(m.family, odd_table).value))
    return comps


def leibniz_defect(d: MapLike, x: Element, y: Element) -> Element:
    """How far a linear map is from satisfying the graded Leibniz rule.

    Computes d([x, y]) minus the sum, over homogeneous components d_p of d
    and x_q of x, of [d_p(x_q), y] + (-1)^{pq} [x_q, d_p(y)].  The result is
    identically zero exactly when d is a superderivation on the span of the
    inputs.
    """
    family = x.family
    if y.family is not family:
        raise FamilyMismatchError("defect arguments must share one family")
    total = evaluate(d, bracket(x, y))
    x_parts = parity_decompose(x)
    for p, fn in _homogeneous_component_maps(d):
        dy = fn(y)
        for q, xq in ((0, x_parts[0]), (1, x_parts[1])):
            if xq.is_zero:
                continue
            sign = -1 if (p and q) else 1
            total = total - bracket(fn(xq), y) - sign * bracket(xq, dy)
    return total
