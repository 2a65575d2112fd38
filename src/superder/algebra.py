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

Every element coefficient is a ``fractions.Fraction``.  Every structure
constant is a multiple of 1/12, so the structure table (``bracket_terms``)
returns it as the ``int`` 12 times its value; ``bracket`` sums stay in
machine integers until each output term is reduced once, through a bounded
cache that gives equal (numerator, denominator) pairs one shared Fraction,
and the annihilator solve reads the ints into integer matrix rows.  A basis
vector is a tuple of three ints, so its hash, equality and canonical order
are the tuple's, computed in C.  There is no floating point anywhere in this
package: a coefficient, index or bound that is not an ``int`` or a
``Fraction`` (a float, a string) is a ``TypeError``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, Optional, Tuple, Union

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
_CENTRAL_RANKS = frozenset(_KIND_RANK[k] for k in CENTRAL_KINDS)
_ODD_RANKS = frozenset(_KIND_RANK[k] for k in ODD_KINDS)


class FamilyMismatchError(ValueError):
    """Two operands belong to different algebra families."""


class PositionedError(ValueError):
    """An error about input text; with a position, the message ends in
    " (at position N)"."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class KindNotInFamilyError(PositionedError):
    """A generator kind that does not exist in the given family."""


class IndexNotInSectorError(PositionedError):
    """An index outside the legal sector of a (family, kind) pair."""


class _Record:
    """Base of the package's immutable records; ``__slots__`` names the fields
    in constructor order, given by position or name.  A record equals only its
    own type, hashes and prints its fields, and is copied and pickled by them."""

    __slots__ = ()

    def __init_subclass__(cls):
        # The fields as a tuple, read in C; one name alone gives the bare value.
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kw):
        args += tuple(kw.pop(f) for f in self.__slots__[len(args):] if f in kw) if kw else ()
        if kw or len(args) != len(self.__slots__):
            raise TypeError("%s() takes the fields %s" % (type(self).__name__, self.__slots__))
        for name, value in zip(self.__slots__, args):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._fields(self) == other._fields(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % field for field in zip(self.__slots__, self._fields(self))))


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
_FAMILIES = tuple(AlgebraFamily)
_FAMILY_RANK = {family: rank for rank, family in enumerate(_FAMILIES)}


def exact(value: Scalar) -> Fraction:
    """``value`` as a ``Fraction``; anything but an int or a ``Fraction``, such
    as a float or a string that skips the grammar of ``expr``, is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError("expected an int or a Fraction, got %r" % (value,))
    return Fraction(value)


def sector_denominator(family: AlgebraFamily, kind: str) -> int:
    """The legal indices of a non-central kind are the rationals whose lowest
    terms have exactly this denominator: 2 (half-odd integers) for the odd
    generators of svir12, 1 (integers) everywhere else."""
    return 2 if kind == KIND_G and family is AlgebraFamily.SVIR12 else 1


class BasisVector(tuple):
    """One generator of an algebra family, stored as the int tuple
    ``(kind rank, 2 * index, family rank)``: every legal index lies in
    (1/2)Z, and a central kind's index is normalised to 0."""

    __slots__ = ()

    def __new__(cls, family: AlgebraFamily, kind: str, index: Scalar = 0):
        if kind not in family.kinds:
            raise KindNotInFamilyError(
                "kind %r does not exist in family %r" % (kind, family.value))
        if kind in CENTRAL_KINDS:
            twice = 0
        else:
            idx = index if type(index) is Fraction else exact(index)
            if idx.denominator != sector_denominator(family, kind):
                raise IndexNotInSectorError(
                    "index %s is outside the legal sector for %s in family %s"
                    % (idx, kind, family.value))
            twice = 2 * idx.numerator // idx.denominator
        return tuple.__new__(cls, (_KIND_RANK[kind], twice, _FAMILY_RANK[family]))

    def __getnewargs__(self):
        return (self.family, self.kind, self.index)

    @property
    def family(self) -> AlgebraFamily:
        return _FAMILIES[self[2]]

    @property
    def kind(self) -> str:
        return KIND_ORDER[self[0]]

    @property
    def index(self) -> Fraction:
        return Fraction(self[1], 2)

    @property
    def parity(self) -> int:
        """0 for even generators, 1 for odd ones."""
        return 1 if self[0] in _ODD_RANKS else 0

    @property
    def is_central(self) -> bool:
        return self[0] in _CENTRAL_RANKS

    @lru_cache(maxsize=4096)
    def token(self) -> str:
        if self.kind in CENTRAL_KINDS:
            return self.kind
        t = self[1]
        return "%s[%s]" % (self.kind, t // 2 if t % 2 == 0 else "%d/2" % t)

    def __repr__(self):
        return "BasisVector(%s, %s)" % (self.family.value, self.token())


class Element:
    """A finitely supported rational linear combination of basis vectors.

    Canonical form: like terms merged, zero coefficients dropped, terms kept
    sorted by (kind, index).  The constructor brings a dict or an iterable of
    (vector, coefficient) pairs to that form; ``_canonical`` wraps a term map
    that is already in it (brackets, negation, nonzero scaling).  Instances
    are immutable by convention; all arithmetic returns fresh objects.
    """

    __slots__ = ("family", "terms")

    def __init__(self, family: AlgebraFamily,
                 terms: Union[Dict[BasisVector, Scalar],
                              Iterable[Tuple[BasisVector, Scalar]]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        rank = _FAMILY_RANK[family]
        for bv, c in items:
            if bv[2] != rank:
                raise FamilyMismatchError(
                    "basis vector %r does not belong to family %r"
                    % (bv.token(), family.value))
            c = c if type(c) is Fraction else exact(c)
            if c:
                prev = acc.get(bv)
                acc[bv] = c if prev is None else prev + c
        self.family = family
        self.terms = {b: acc[b] for b in sorted(acc) if acc[b]}

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
        c = coeff if type(coeff) is Fraction else exact(coeff)
        return cls._canonical(bv.family, {bv: c} if c else {})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> Tuple[BasisVector, ...]:
        return tuple(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.family is not other.family:
            raise FamilyMismatchError(
                "cannot combine elements of families %r and %r"
                % (self.family.value, other.family.value))
        return Element(self.family, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + -other

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

# Every structure constant is an integer multiple of 1 / STRUCTURE_DENOMINATOR.
STRUCTURE_DENOMINATOR = 12

# One shared Fraction per recurring int pair: dict equality skips Fraction.__eq__.
_reduced = lru_cache(maxsize=1 << 12)(Fraction)

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


def _shape_terms(family: AlgebraFamily, shape: str, kind: str,
                 slot: Optional[int], m2: int, n2: int):
    """The bracket of one table shape at indices (m, n) = (m2/2, n2/2), as
    (vector, 12 * coeff) pairs of nonzero ints: integer polynomials in
    (m2, n2)."""
    index = Fraction(m2 + n2, 2)
    if shape == _MODULE:
        k = 3 * (m2 - 2 * n2)
        return ((BasisVector(family, kind, index), k),) if k else ()
    if shape == _WITT:
        m = m2 // 2
        lead, central = 6 * (m2 - n2), m ** 3 - m
    else:
        lead, central = 24, m2 * m2 - 1
    out = []
    if lead:
        out.append((BasisVector(family, kind, index), lead))
    if m2 + n2 == 0 and central:
        out.append((BasisVector(family, family.central_kinds[slot]), central))
    return tuple(out)


@lru_cache(maxsize=1 << 15)
def bracket_terms(u: BasisVector, v: BasisVector) -> Tuple[Tuple[BasisVector, int], ...]:
    """Bracket of two basis vectors of one family, as (vector, k) pairs.

    Each ``k`` is a nonzero int, ``STRUCTURE_DENOMINATOR`` times the
    structure constant, and no vector appears twice.
    """
    entry = _STRUCTURE.get((u.kind, v.kind))
    if entry is not None:
        return _shape_terms(u.family, *entry, u[1], v[1])
    entry = _STRUCTURE.get((v.kind, u.kind))
    if entry is not None:
        # Super anti-symmetry: [u, v] = -(-1)^{|u||v|} [v, u].
        sign = 1 if (u.parity and v.parity) else -1
        return tuple((w, sign * c)
                     for w, c in _shape_terms(u.family, *entry, v[1], u[1]))
    return ()


def bracket(x: Element, y: Element, _start=()) -> Element:
    """Graded Lie bracket, extended bilinearly from the basis brackets.

    Sums are unreduced ``[numerator, denominator]`` int pairs, added with no gcd
    when the denominators agree, that start from the ``(vector, n, d)`` triples
    of ``_start``; each output term is reduced once."""
    if x.family is not y.family:
        raise FamilyMismatchError(
            "cannot bracket elements of families %r and %r"
            % (x.family.value, y.family.value))
    ys = [(v, c.numerator, c.denominator) for v, c in y.terms.items()]
    acc = {w: [n, d] for w, n, d in _start}
    for u, cu in x.terms.items():
        un, ud = cu.numerator, STRUCTURE_DENOMINATOR * cu.denominator
        for v, vn, vd in ys:
            n0, d = un * vn, ud * vd
            for w, k in bracket_terms(u, v):
                n = n0 * k
                pair = acc.get(w)
                if pair is None:
                    acc[w] = [n, d]
                elif pair[1] == d:
                    pair[0] += n
                else:
                    pair[0] = pair[0] * d + n * pair[1]
                    pair[1] *= d
    out = {}
    for w in sorted(acc):
        n, d = acc[w]
        if n:
            out[w] = _reduced(n, d)
    return Element._canonical(x.family, out)
