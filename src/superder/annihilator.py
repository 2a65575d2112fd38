"""Window-bounded annihilator spaces of elements under superderivations.

A graded window bounds the support of candidate derivations.  Its
directions are the coordinates of ``SuperDerivation.coords``: every
non-central basis vector whose index has absolute value at most the bound,
then the outer direction ``OUTER_TAG`` in families that have one.  Images of
the generators may reach indices up to twice the bound; rows of the
evaluation matrix follow the data and are never clipped.  Both kernel solves
over derivations live here, the window solve and the honest oracle's pair
mask ``_pair_mask``, and read one builder's integer rows, one column per
``coords`` dict; ``evaluation_matrix`` is the exact view of the window rows.

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
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .algebra import (
    STRUCTURE_DENOMINATOR,
    AlgebraFamily,
    BasisVector,
    Element,
    Scalar,
    _Record,
    bracket_terms,
    exact,
    sector_denominator,
)
from .derivations import _FIXED_RANKS, OUTER_TAG, SuperDerivation, has_outer
from .linalg import LabeledMatrix, _kernel, kernel_basis


class ZeroTargetError(ValueError):
    """The zero element has no meaningful annihilator problem."""


class GradedWindow(_Record):
    """A symmetric index window |index| <= bound for derivation support."""

    __slots__ = ("bound",)

    def __init__(self, bound: Fraction):
        b = bound if type(bound) is Fraction else exact(bound)
        if b < 0:
            raise ValueError("window bound must be non-negative")
        super().__init__(b)

    def _indices(self, family: AlgebraFamily, kind: str) -> List[Fraction]:
        # r = m/den in lowest terms with |m| <= den * bound.
        den = sector_denominator(family, kind)
        top = int(den * self.bound)
        return [Fraction(m, den) for m in range(-top, top + 1) if math.gcd(m, den) == 1]

    @lru_cache(maxsize=256)
    def generators(self, family: AlgebraFamily) -> Tuple[BasisVector, ...]:
        """Non-central basis vectors inside the window, in canonical order."""
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


def _image_rows(columns: Sequence[Dict[Hashable, Scalar]],
                y: Element) -> Tuple[Dict[BasisVector, Dict[int, int]], int]:
    """The images at ``y`` of the derivations whose ``coords`` are the
    columns, as integer rows ``{row vector: {column index: int}}`` and their
    common denominator: 12 (the table's) times the lcm of the columns'
    denominators times the lcm of y's.  Zero entries and empty rows are
    dropped; rows come in the order reached."""
    dc = math.lcm(*(c.denominator for col in columns for c in col.values()))
    dy = math.lcm(*(c.denominator for c in y.terms.values()))
    ys = [(v, c.numerator * (dy // c.denominator)) for v, c in y.terms.items()]
    fixed = [(v, STRUCTURE_DENOMINATOR * n) for v, n in ys if v[0] in _FIXED_RANKS]
    rows: Dict[BasisVector, Dict[int, int]] = defaultdict(dict)
    for j, col in enumerate(columns):
        for u, cu in col.items():
            a = cu.numerator * (dc // cu.denominator)
            if u is OUTER_TAG:
                for w, n in fixed:
                    row = rows[w]
                    row[j] = row.get(j, 0) + a * n
                continue
            for v, vn in ys:
                n = a * vn
                for w, k in bracket_terms(u, v):
                    row = rows[w]
                    row[j] = row.get(j, 0) + n * k
    return ({w: nz for w, row in rows.items() if (nz := {j: n for j, n in row.items() if n})},
            STRUCTURE_DENOMINATOR * dc * dy)


def _window_rows(target: Element, window: GradedWindow):
    """``_image_rows`` of the window directions at the target."""
    if target.is_zero:
        raise ZeroTargetError("the annihilator of the zero element is everything")
    return _image_rows([{t: 1} for t in window.directions(target.family)], target)


def evaluation_matrix(target: Element, window: GradedWindow) -> LabeledMatrix:
    """Matrix of the map (derivation coefficients) -> (value on the target).

    Columns are the window directions (generators acting through ad, then
    the outer tag); rows are tagged by the basis vectors that actually
    appear in the images, in canonical order.  This is the exact view of the
    integer rows that ``annihilator_basis`` solves.
    """
    rows, den = _window_rows(target, window)
    cols = window.directions(target.family)
    order = tuple(sorted(rows))
    return LabeledMatrix(order, cols, {(w, cols[j]): Fraction(n, den)
                                       for w in order for j, n in rows[w].items()})


class DerivationSpace(_Record):
    """A finite-dimensional space of superderivations, with provenance."""

    __slots__ = ("basis", "window", "target")

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
    """
    rows, _ = _window_rows(target, window)
    basis = tuple(SuperDerivation.from_coords(target.family, vec)
                  for vec in _kernel(window.directions(target.family), rows.values()))
    return DerivationSpace(basis, window, target)


def _mask_base(x: Element, window: GradedWindow):
    """The window derivations that kill x: a spanning base (x's annihilator
    basis, or every window direction for a zero x) and its ``coords``."""
    base = (annihilator_basis(x, window).basis if not x.is_zero else
            tuple(SuperDerivation.from_coords(x.family, {tag: 1})
                  for tag in window.directions(x.family)))
    return base, [d.coords() for d in base]


def _pair_mask(x_base, y: Element) -> Tuple[Tuple[SuperDerivation, ...], Tuple[dict, ...]]:
    """The derivations in the span of ``x_base``, a ``_mask_base``, that kill y:
    its base and a basis of that subspace as ``{j: c}`` vectors over it."""
    base, columns = x_base
    rows, _ = _image_rows(columns, y)
    return base, _kernel(range(len(base)), rows.values())


def derivation_coords(d: SuperDerivation, window: GradedWindow) -> Optional[List[Fraction]]:
    """Dense coordinates of d over the window directions.

    Returns None when the inner support does not fit inside the window.
    """
    coords = d.coords()
    dense = [coords.pop(tag, Fraction(0)) for tag in window.directions(d.family)]
    return None if coords else dense


def span_contains(basis: Sequence[SuperDerivation], d: SuperDerivation,
                  window: GradedWindow) -> bool:
    """Whether d lies in the rational span of the given derivations: some
    kernel vector of the coordinate columns ``[basis | d]`` has a d entry."""
    columns = [derivation_coords(b, window) for b in (*basis, d)]
    if columns[-1] is None:
        return False
    if None in columns:
        raise ValueError("basis member has support outside the window")
    entries = {(i, j): c for j, col in enumerate(columns) for i, c in enumerate(col) if c}
    m = LabeledMatrix(tuple(range(len(columns[-1]))), tuple(range(len(columns))), entries)
    return any(len(basis) in v for v in kernel_basis(m))
