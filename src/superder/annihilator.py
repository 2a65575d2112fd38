"""Window-bounded annihilator spaces of elements under superderivations.

A graded window bounds the support of candidate derivations.  Its
directions are the coordinates of ``SuperDerivation.coords``: every
non-central basis vector whose index has absolute value at most the bound,
then the outer direction ``OUTER_TAG`` in families that have one.  Images of
the generators may reach indices up to twice the bound; rows of the
evaluation matrix follow the data and are never clipped.  The generator
columns are one ``ad_images`` call, which reads the target's terms once for
every column; ``image_matrix`` sorts the rows once.

Choosing the bound is the caller's responsibility, and no default is known
to be enough.  The CLI defaults to 2 * (largest absolute index in the
target) + 2, which covers the odd-generator lemmas but not every target:
the annihilator of a central element grows with every window (svir0 ``C``
has dimension 10, 14 and 18 at bounds 2, 3 and 4), and a small bound can
miss a direction entirely (``G[3]`` in svir0 has none at bound 4, while
``ad(L[6])`` appears at bound 6).

``annihilator_basis`` memoises its results on (target, window) in a
least-recently-used cache of at most 256 entries, so a long session that
solves many distinct targets keeps bounded memory; ``GradedWindow.generators``
keeps its tuples the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraFamily,
    BasisVector,
    Element,
    ad_images,
    exact,
    sector_denominator,
)
from .derivations import OUTER_TAG, SuperDerivation, has_outer, outer_action
from .linalg import LabeledMatrix, kernel_basis, rank


class ZeroTargetError(ValueError):
    """The zero element has no meaningful annihilator problem."""


@dataclass(frozen=True)
class GradedWindow:
    """A symmetric index window |index| <= bound for derivation support."""

    bound: Fraction

    def __post_init__(self):
        b = self.bound if type(self.bound) is Fraction else exact(self.bound)
        if b < 0:
            raise ValueError("window bound must be non-negative")
        object.__setattr__(self, "bound", b)

    def _indices(self, family: AlgebraFamily, kind: str) -> List[Fraction]:
        # r = m/den in lowest terms with |m| <= den * bound.
        den = sector_denominator(family, kind)
        top = int(den * self.bound)
        return [Fraction(m, den) for m in range(-top, top + 1) if math.gcd(m, den) == 1]

    @lru_cache(maxsize=256)
    def generators(self, family: AlgebraFamily) -> Tuple[BasisVector, ...]:
        """Non-central basis vectors inside the window, in canonical order.

        Computed once per (window, family) and kept, like the annihilator
        memo, for the 256 most recently used pairs.
        """
        return tuple(BasisVector(family, kind, idx) for kind in family.noncentral_kinds
                     for idx in self._indices(family, kind))

    def directions(self, family: AlgebraFamily) -> Tuple[Hashable, ...]:
        """Coordinate order of window derivations: the generators, then the
        outer tag where the family has the outer direction."""
        return self.generators(family) + ((OUTER_TAG,) if has_outer(family) else ())

    def basis_vectors(self, family: AlgebraFamily) -> Tuple[BasisVector, ...]:
        """All basis vectors inside the window, central charges last."""
        return self.generators(family) + tuple(BasisVector(family, kind)
                                               for kind in family.central_kinds)


def image_matrix(images: Dict[Hashable, Dict[BasisVector, Fraction]]) -> LabeledMatrix:
    """Matrix whose column ``tag`` holds the term map ``images[tag]``.

    Columns follow the dict order; rows are the basis vectors that appear in
    the images, sorted once into canonical order.
    """
    entries = {(b, tag): c for tag, terms in images.items() for b, c in terms.items()}
    rows = tuple(sorted({b for b, _ in entries}))
    return LabeledMatrix(rows, tuple(images), entries)


def evaluation_matrix(target: Element, window: GradedWindow) -> LabeledMatrix:
    """Matrix of the map (derivation coefficients) -> (value on the target).

    Columns are the window directions (generators acting through ad, then
    the outer tag); rows are tagged by the basis vectors that actually
    appear in the images.
    """
    if target.is_zero:
        raise ZeroTargetError("the annihilator of the zero element is everything")
    images = ad_images(window.generators(target.family), target)
    if has_outer(target.family):
        images[OUTER_TAG] = outer_action(target).terms
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


@lru_cache(maxsize=256)
def annihilator_basis(target: Element, window: GradedWindow) -> DerivationSpace:
    """Canonical basis of the derivations supported in the window that kill the target.

    The basis comes from the canonical kernel of the evaluation matrix, so it
    is deterministic; every member satisfies d.apply(target) == 0 exactly.
    Results are memoised on (target, window), keeping the 256 most recently
    used.
    """
    basis = tuple(SuperDerivation.from_coords(target.family, vec)
                  for vec in kernel_basis(evaluation_matrix(target, window)))
    return DerivationSpace(basis, window, target)


def derivation_coords(d: SuperDerivation, window: GradedWindow) -> Optional[List[Fraction]]:
    """Dense coordinates of d over the window directions.

    Returns None when the inner support does not fit inside the window.
    """
    coords = d.coords()
    dense = [coords.pop(tag, Fraction(0)) for tag in window.directions(d.family)]
    return None if coords else dense


def span_contains(basis: Sequence[SuperDerivation], d: SuperDerivation,
                  window: GradedWindow) -> bool:
    """Whether d lies in the rational span of the given derivations."""
    directions = window.directions(d.family)
    inside = set(directions)
    target = d.coords()
    if not target.keys() <= inside:
        return False
    rows = [b.coords() for b in basis]
    if any(not row.keys() <= inside for row in rows):
        raise ValueError("basis member has support outside the window")

    def span_rank(vectors: List[Dict[Hashable, Fraction]]) -> int:
        entries = {(i, tag): c for i, v in enumerate(vectors) for tag, c in v.items()}
        return rank(LabeledMatrix(tuple(range(len(vectors))), directions, entries))

    return span_rank(rows + [target]) == span_rank(rows)
