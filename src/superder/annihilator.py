"""Window-bounded annihilator spaces of elements under superderivations.

A graded window bounds the support of candidate derivations: the generator
set of a window consists of every non-central basis vector whose index has
absolute value at most the bound, plus the outer derivation direction for
the sw22 family.  Images of the generators may reach indices up to twice the
bound; rows of the evaluation matrix follow the data and are never clipped.

Choosing the bound is the caller's responsibility.  A reliable rule of thumb
is to take the bound at least 2 * (largest absolute index in the target) + 2,
which leaves room for every annihilator direction the structure constants
allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .algebra import (
    KIND_G,
    AlgebraFamily,
    BasisVector,
    Element,
    bracket,
)
from .derivations import SuperDerivation, outer_action
from .linalg import LabeledMatrix, kernel_basis, rows_rank

# Column tag for the outer derivation direction.
OUTER_TAG = "D"


class ZeroTargetError(ValueError):
    """The zero element has no meaningful annihilator problem."""


@dataclass(frozen=True)
class GradedWindow:
    """A symmetric index window |index| <= bound for derivation support."""

    bound: Fraction

    def __post_init__(self):
        b = Fraction(self.bound)
        if b < 0:
            raise ValueError("window bound must be non-negative")
        object.__setattr__(self, "bound", b)

    def _indices(self, family: AlgebraFamily, kind: str) -> List[Fraction]:
        if kind == KIND_G and family is AlgebraFamily.SVIR12:
            # Half-odd integers r = m/2 with m odd and |m| <= 2 * bound.
            top = int(2 * self.bound)
            return [Fraction(m, 2) for m in range(-top, top + 1) if m % 2]
        top = int(self.bound)
        return [Fraction(k) for k in range(-top, top + 1)]

    def generators(self, family: AlgebraFamily) -> Tuple[BasisVector, ...]:
        """Non-central basis vectors inside the window, in canonical order."""
        out = []
        for kind in family.noncentral_kinds:
            for idx in self._indices(family, kind):
                out.append(BasisVector(family, kind, idx))
        return tuple(out)

    def basis_vectors(self, family: AlgebraFamily,
                      include_central: bool = True) -> Tuple[BasisVector, ...]:
        """All basis vectors inside the window, central charges last."""
        out = list(self.generators(family))
        if include_central:
            for kind in family.central_kinds:
                out.append(BasisVector(family, kind))
        return tuple(out)


def image_matrix(images: Dict[Hashable, Element]) -> LabeledMatrix:
    """Matrix whose column ``tag`` holds the coordinates of ``images[tag]``.

    Columns follow the dict order; rows are the basis vectors that appear in
    the images, in canonical order.
    """
    row_set = {b for img in images.values() for b in img.terms}
    rows = tuple(sorted(row_set, key=lambda b: b.sort_key()))
    entries = {(b, tag): c for tag, img in images.items() for b, c in img.terms.items()}
    return LabeledMatrix(rows, tuple(images), entries)


def evaluation_matrix(target: Element, window: GradedWindow) -> LabeledMatrix:
    """Matrix of the map (derivation coefficients) -> (value on the target).

    Columns are tagged by the window generators (acting through ad) plus the
    outer tag for sw22; rows are tagged by the basis vectors that actually
    appear in the images.
    """
    if target.is_zero:
        raise ZeroTargetError("the annihilator of the zero element is everything")
    family = target.family
    images: Dict = {bv: bracket(Element.basis(bv), target)
                    for bv in window.generators(family)}
    if family is AlgebraFamily.SW22:
        images[OUTER_TAG] = outer_action(target)
    return image_matrix(images)


@dataclass(frozen=True)
class DerivationSpace:
    """A finite-dimensional space of superderivations, with provenance."""

    basis: Tuple[SuperDerivation, ...]
    window: GradedWindow
    target: Element

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, d: SuperDerivation) -> bool:
        """Whether d lies in the span of the basis (support must fit the window)."""
        return span_contains(self.basis, d, self.window)


_ANNIHILATOR_CACHE: Dict[tuple, DerivationSpace] = {}


def annihilator_basis(target: Element, window: GradedWindow) -> DerivationSpace:
    """Canonical basis of the derivations supported in the window that kill the target.

    The basis comes from the canonical kernel of the evaluation matrix, so it
    is deterministic; every member satisfies apply(d, target) == 0 exactly.
    Results are memoised on (family, target, window).
    """
    key = (target.family, target.key(), window)
    hit = _ANNIHILATOR_CACHE.get(key)
    if hit is not None:
        return hit
    m = evaluation_matrix(target, window)
    basis = []
    for vec in kernel_basis(m):
        lam = vec.pop(OUTER_TAG, Fraction(0))
        inner = Element(target.family, vec)
        basis.append(SuperDerivation(target.family, inner, lam))
    space = DerivationSpace(tuple(basis), window, target)
    _ANNIHILATOR_CACHE[key] = space
    return space


def derivation_coords(d: SuperDerivation, window: GradedWindow) -> Optional[List[Fraction]]:
    """Dense coordinates of d over the window generators plus the outer tag.

    Returns None when the inner support does not fit inside the window.
    """
    gens = window.generators(d.family)
    pos = {bv: i for i, bv in enumerate(gens)}
    has_outer = d.family is AlgebraFamily.SW22
    coords = [Fraction(0)] * (len(gens) + (1 if has_outer else 0))
    for bv, c in d.inner.terms.items():
        i = pos.get(bv)
        if i is None:
            return None
        coords[i] = c
    if has_outer:
        coords[-1] = d.outer_lambda
    return coords


def span_contains(basis: Sequence[SuperDerivation], d: SuperDerivation,
                  window: GradedWindow) -> bool:
    """Whether d lies in the rational span of the given derivations."""
    target = derivation_coords(d, window)
    if target is None:
        return False
    rows = []
    for b in basis:
        coords = derivation_coords(b, window)
        if coords is None:
            raise ValueError("basis member has support outside the window")
        rows.append(coords)
    base_rank = rows_rank(rows)
    return rows_rank(rows + [target]) == base_rank
