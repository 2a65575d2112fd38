"""Exact graded brackets for the super Virasoro and super W(2,2) algebras.

Four algebra families are supported, each with exact rational structure
constants:

* ``vir``    - the Virasoro algebra, spanned by L_m (m integral) and a
  central charge C.
* ``svir0``  - the Ramond-sector super Virasoro algebra, adding odd
  generators G_m with integral index.
* ``svir12`` - the Neveu-Schwarz-sector super Virasoro algebra, whose odd
  generators G_r carry half-odd-integral index.
* ``sw22``   - the super W(2,2) algebra, with even generators L_m, I_m, odd
  generators G_m, Q_m (all integral) and two central charges C1, C2.

Every element coefficient is a ``fractions.Fraction``.  The structure table
(``bracket_terms``) returns its integral constants as ``int`` and the others
as ``Fraction``, so the common products stay in machine integers; both are
exact, and there is no floating point anywhere in this package.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional, Tuple, Union

Scalar = Union[int, Fraction]

KIND_L = "L"
KIND_G = "G"
KIND_I = "I"
KIND_Q = "Q"
KIND_C = "C"
KIND_C1 = "C1"
KIND_C2 = "C2"

# Canonical ordering used for printing and for matrix column layout.
KIND_ORDER = (KIND_L, KIND_G, KIND_I, KIND_Q, KIND_C, KIND_C1, KIND_C2)
_KIND_RANK = {kind: rank for rank, kind in enumerate(KIND_ORDER)}

CENTRAL_KINDS = frozenset((KIND_C, KIND_C1, KIND_C2))
ODD_KINDS = frozenset((KIND_G, KIND_Q))


class FamilyMismatchError(ValueError):
    """Two operands belong to different algebra families."""


class KindNotInFamilyError(ValueError):
    """A generator kind that does not exist in the given family."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class IndexNotInSectorError(ValueError):
    """An index outside the legal sector of a (family, kind) pair."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class AlgebraFamily(Enum):
    VIR = "vir"
    SVIR0 = "svir0"
    SVIR12 = "svir12"
    SW22 = "sw22"

    @property
    def kinds(self) -> Tuple[str, ...]:
        return _FAMILY_KINDS[self]

    @property
    def noncentral_kinds(self) -> Tuple[str, ...]:
        return tuple(k for k in _FAMILY_KINDS[self] if k not in CENTRAL_KINDS)

    @property
    def central_kinds(self) -> Tuple[str, ...]:
        return tuple(k for k in _FAMILY_KINDS[self] if k in CENTRAL_KINDS)

    @classmethod
    def from_tag(cls, tag: str) -> "AlgebraFamily":
        for fam in cls:
            if fam.value == tag:
                return fam
        raise ValueError("unknown algebra family %r (expected one of %s)"
                         % (tag, ", ".join(f.value for f in cls)))


_FAMILY_KINDS = {
    AlgebraFamily.VIR: (KIND_L, KIND_C),
    AlgebraFamily.SVIR0: (KIND_L, KIND_G, KIND_C),
    AlgebraFamily.SVIR12: (KIND_L, KIND_G, KIND_C),
    AlgebraFamily.SW22: (KIND_L, KIND_G, KIND_I, KIND_Q, KIND_C1, KIND_C2),
}
_FAMILY_RANK = {family: rank for rank, family in enumerate(AlgebraFamily)}


def sector_denominator(family: AlgebraFamily, kind: str) -> int:
    """The legal indices of a non-central kind are the rationals whose lowest
    terms have exactly this denominator: 2 (half-odd integers) for the odd
    generators of svir12, 1 (integers) everywhere else."""
    return 2 if kind == KIND_G and family is AlgebraFamily.SVIR12 else 1


class BasisVector:
    """One generator of an algebra family, identified by kind and index.

    Central kinds carry no meaningful index; it is normalised to 0.  Every
    legal index lies in (1/2)Z, so it is stored exactly as the int
    ``2 * index``; the hash and the canonical sort key come from the int
    tuple ``(kind rank, 2 * index, family rank)``, computed once.  Instances
    are immutable.
    """

    __slots__ = ("family", "kind", "_twice", "_key", "_hash")

    def __init__(self, family: AlgebraFamily, kind: str, index: Scalar = 0):
        if kind not in family.kinds:
            raise KindNotInFamilyError(
                "kind %r does not exist in family %r" % (kind, family.value))
        if kind in CENTRAL_KINDS:
            twice = 0
        else:
            idx = Fraction(index)
            if idx.denominator != sector_denominator(family, kind):
                raise IndexNotInSectorError(
                    "index %s is outside the legal sector for %s in family %s"
                    % (idx, kind, family.value))
            twice = 2 * idx.numerator // idx.denominator
        key = (_KIND_RANK[kind], twice, _FAMILY_RANK[family])
        for name, value in (("family", family), ("kind", kind), ("_twice", twice),
                            ("_key", key), ("_hash", hash(key))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BasisVector is immutable")

    def __delattr__(self, name):
        raise AttributeError("BasisVector is immutable")

    def __reduce__(self):
        return (BasisVector, (self.family, self.kind, self.index))

    @property
    def index(self) -> Fraction:
        return Fraction(self._twice, 2)

    @property
    def parity(self) -> int:
        """0 for even generators, 1 for odd ones."""
        return 1 if self.kind in ODD_KINDS else 0

    @property
    def is_central(self) -> bool:
        return self.kind in CENTRAL_KINDS

    def token(self) -> str:
        if self.kind in CENTRAL_KINDS:
            return self.kind
        t = self._twice
        return "%s[%s]" % (self.kind, t // 2 if t % 2 == 0 else "%d/2" % t)

    def sort_key(self) -> Tuple[int, int, int]:
        return self._key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not BasisVector:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "BasisVector(%s, %s)" % (self.family.value, self.token())


_SORT_KEY = attrgetter("_key")


class Element:
    """A finitely supported rational linear combination of basis vectors.

    Canonical form: like terms merged, zero coefficients dropped, terms kept
    sorted by (kind, index).  The constructor brings any term list to that
    form; ``_canonical`` wraps a term map that is already in it (brackets,
    negation, nonzero scaling).  Instances are immutable by convention; all
    arithmetic returns fresh objects.
    """

    __slots__ = ("family", "terms")

    def __init__(self, family: AlgebraFamily,
                 terms: Union[Mapping[BasisVector, Scalar],
                              Iterable[Tuple[BasisVector, Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for bv, c in items:
            if bv.family is not family:
                raise FamilyMismatchError(
                    "basis vector %r does not belong to family %r"
                    % (bv.token(), family.value))
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                prev = acc.get(bv)
                acc[bv] = c if prev is None else prev + c
        self.family = family
        self.terms = {b: acc[b] for b in sorted(acc, key=_SORT_KEY) if acc[b]}

    @classmethod
    def _canonical(cls, family: AlgebraFamily, terms: dict) -> "Element":
        """The element whose term map is ``terms``, taken as it is.

        ``terms`` must already be canonical: nonzero ``Fraction``
        coefficients on distinct basis vectors of ``family``, in canonical
        order.  Nothing is checked, merged or sorted.
        """
        self = object.__new__(cls)
        self.family = family
        self.terms = terms
        return self

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, family: AlgebraFamily) -> "Element":
        return cls(family)

    @classmethod
    def basis(cls, bv: BasisVector, coeff: Scalar = 1) -> "Element":
        c = coeff if type(coeff) is Fraction else Fraction(coeff)
        return cls._canonical(bv.family, {bv: c} if c else {})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> Tuple[BasisVector, ...]:
        return tuple(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _require_same_family(self, other: "Element"):
        if self.family is not other.family:
            raise FamilyMismatchError(
                "cannot combine elements of families %r and %r"
                % (self.family.value, other.family.value))

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_family(other)
        return Element(self.family, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_family(other)
        return Element(self.family, chain(self.terms.items(),
                                          ((b, -c) for b, c in other.terms.items())))

    def __neg__(self) -> "Element":
        return Element._canonical(self.family, {b: -c for b, c in self.terms.items()})

    def __mul__(self, scalar) -> "Element":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return Element(self.family)
        return Element._canonical(self.family,
                                  {b: c * scalar for b, c in self.terms.items()})

    __rmul__ = __mul__

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.family is other.family and self.terms == other.terms

    def __hash__(self):
        return hash((self.family, tuple(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "Element(%s, 0)" % self.family.value
        body = " + ".join("%s*%s" % (c, b.token()) for b, c in self.terms.items())
        return "Element(%s, %s)" % (self.family.value, body)


def parity_decompose(x: Element) -> Tuple[Element, Element]:
    """Split an element into its even and odd parts (in that order)."""
    even = {b: c for b, c in x.terms.items() if b.parity == 0}
    odd = {b: c for b, c in x.terms.items() if b.parity == 1}
    return Element(x.family, even), Element(x.family, odd)


# ---------------------------------------------------------------------------
# Structure constants.
#
# The nonzero brackets, on the canonically ordered kind pairs, are
#
#   [L_m, L_n] = (m - n) L_{m+n} + delta_{m+n,0} (m^3 - m)/12 * C   (C1 in sw22)
#   [L_m, G_r] = (m/2 - r) G_{m+r}
#   [G_r, G_s] = 2 L_{r+s} + delta_{r+s,0} (r^2 - 1/4)/3 * C        (C1 in sw22)
#   [L_m, I_n] = (m - n) I_{m+n} + delta_{m+n,0} (m^3 - m)/12 * C2  (sw22)
#   [L_m, Q_r] = (m/2 - r) Q_{m+r}                                  (sw22)
#   [G_r, Q_s] = 2 I_{r+s} + delta_{r+s,0} (r^2 - 1/4)/3 * C2       (sw22)
#   [I_m, G_r] = (m/2 - r) Q_{m+r}                                  (sw22)
#
# Every other pair of non-central generators brackets to zero, central
# generators bracket to zero against everything, and reversed orderings
# follow from super anti-symmetry  [u, v] = -(-1)^{|u||v|} [v, u].
# ---------------------------------------------------------------------------

# The three shapes of the table above.
_WITT = "witt"      # (m - n) X_{m+n} + delta_{m+n,0} (m^3 - m)/12 * Z
_MODULE = "module"  # (m/2 - r) X_{m+r}
_ODD = "odd"        # 2 X_{r+s} + delta_{r+s,0} (r^2 - 1/4)/3 * Z

# Canonically ordered kind pair -> (shape, result kind X, central slot).  The
# central kind Z is ``family.central_kinds[slot]``: C (C1 in sw22) for slot 0,
# C2 for slot 1.
_STRUCTURE = {
    (KIND_L, KIND_L): (_WITT, KIND_L, 0),
    (KIND_L, KIND_G): (_MODULE, KIND_G, None),
    (KIND_G, KIND_G): (_ODD, KIND_L, 0),
    (KIND_L, KIND_I): (_WITT, KIND_I, 1),
    (KIND_L, KIND_Q): (_MODULE, KIND_Q, None),
    (KIND_G, KIND_Q): (_ODD, KIND_I, 1),
    (KIND_I, KIND_G): (_MODULE, KIND_Q, None),
}


def _ratio(num: int, den: int) -> Scalar:
    """num/den exactly: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _shape_terms(family: AlgebraFamily, shape: str, kind: str,
                 slot: Optional[int], m2: int, n2: int):
    """The bracket of one table shape at indices (m, n) = (m2/2, n2/2), as
    (vector, coeff) pairs; integral coefficients are ints."""
    if shape == _MODULE:
        c = _ratio(m2 - 2 * n2, 4)
        return ((BasisVector(family, kind, _ratio(m2 + n2, 2)), c),) if c else ()
    if shape == _WITT:
        m = m2 // 2
        lead, central = (m2 - n2) // 2, _ratio(m ** 3 - m, 12)
    else:
        lead, central = 2, _ratio(m2 * m2 - 1, 12)
    out = []
    if lead:
        out.append((BasisVector(family, kind, _ratio(m2 + n2, 2)), lead))
    if m2 + n2 == 0 and central:
        out.append((BasisVector(family, family.central_kinds[slot]), central))
    return tuple(out)


@lru_cache(maxsize=1 << 15)
def bracket_terms(u: BasisVector, v: BasisVector) -> Tuple[Tuple[BasisVector, Scalar], ...]:
    """Bracket of two basis vectors of one family, as (vector, coeff) pairs.

    Integral coefficients are ints and the others Fractions.
    """
    entry = _STRUCTURE.get((u.kind, v.kind))
    if entry is not None:
        return _shape_terms(u.family, *entry, u._twice, v._twice)
    entry = _STRUCTURE.get((v.kind, u.kind))
    if entry is not None:
        # Super anti-symmetry: [u, v] = -(-1)^{|u||v|} [v, u].
        sign = 1 if (u.parity and v.parity) else -1
        return tuple((w, sign * c)
                     for w, c in _shape_terms(u.family, *entry, v._twice, u._twice))
    return ()


def accumulate_bracket(acc: dict, xs: Iterable[Tuple[BasisVector, Scalar]],
                       ys: Iterable[Tuple[BasisVector, Scalar]]) -> dict:
    """Add the bracket of two (basis vector, coefficient) sequences into acc.

    ``acc`` maps basis vectors to unreduced ``[numerator, denominator]`` int
    pairs with a positive denominator; numerators are added directly when
    the denominators agree, so the loop does no gcd.  Zero sums stay in
    ``acc``; ``reduced_terms`` turns it into Fractions.  Returns ``acc``.
    """
    ys = [(v, c.numerator, c.denominator) for v, c in ys]
    for u, cu in xs:
        un, ud = cu.numerator, cu.denominator
        for v, vn, vd in ys:
            n0, d0 = un * vn, ud * vd
            for w, c in bracket_terms(u, v):
                if type(c) is int:
                    n, d = n0 * c, d0
                else:
                    n, d = n0 * c.numerator, d0 * c.denominator
                pair = acc.get(w)
                if pair is None:
                    acc[w] = [n, d]
                elif pair[1] == d:
                    pair[0] += n
                else:
                    pair[0] = pair[0] * d + n * pair[1]
                    pair[1] *= d
    return acc


def reduced_terms(acc: dict) -> dict:
    """The nonzero entries of an ``accumulate_bracket`` dict in canonical
    order, each as one reduced Fraction: a term map for ``Element._canonical``."""
    out = {}
    for w in sorted(acc, key=_SORT_KEY):
        n, d = acc[w]
        if n:
            out[w] = Fraction(n, d)
    return out


def bracket(x: Element, y: Element) -> Element:
    """Graded Lie bracket, extended bilinearly from the basis brackets."""
    if x.family is not y.family:
        raise FamilyMismatchError(
            "cannot bracket elements of families %r and %r"
            % (x.family.value, y.family.value))
    return Element._canonical(x.family, reduced_terms(
        accumulate_bracket({}, x.terms.items(), y.terms.items())))
