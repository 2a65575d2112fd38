"""Hypothesis strategies over algebra values."""

from fractions import Fraction

from hypothesis import strategies as st

from superder import AlgebraFamily, BasisVector, Element, RawLinearMap, SuperDerivation
from superder.algebra import KIND_G

ALL_FAMILIES = tuple(AlgebraFamily)
SUPER_FAMILIES = (AlgebraFamily.SVIR0, AlgebraFamily.SVIR12, AlgebraFamily.SW22)

NONZERO_RATIONALS = tuple(Fraction(n, d)
                          for n in (-5, -3, -2, -1, 1, 2, 3, 5)
                          for d in (1, 2, 3))
RATIONALS = (Fraction(0),) + NONZERO_RATIONALS
# Coefficients whose denominators are 2, 3 and 4 as well as 1.
QUARTER_RATIONALS = tuple(Fraction(n, d) for n in (-5, -3, -1, 1, 2, 3, 5)
                          for d in (1, 2, 3, 4))


def index_values(family, kind, bound=3):
    if kind in family.central_kinds:
        return (Fraction(0),)
    if kind == KIND_G and family is AlgebraFamily.SVIR12:
        return tuple(Fraction(n, 2) for n in range(-2 * bound + 1, 2 * bound, 2))
    return tuple(Fraction(n) for n in range(-bound, bound + 1))


def basis_vectors(family, bound=3, include_central=True):
    kinds = family.kinds if include_central else family.noncentral_kinds
    pool = tuple(BasisVector(family, k, i)
                 for k in kinds for i in index_values(family, k, bound))
    return st.sampled_from(pool)


def elements(family, bound=3, max_terms=4, include_central=True,
             allow_zero=True, coefficients=NONZERO_RATIONALS):
    pairs = st.tuples(basis_vectors(family, bound, include_central),
                      st.sampled_from(coefficients))
    strat = st.lists(pairs, min_size=0 if allow_zero else 1,
                     max_size=max_terms).map(lambda ts: Element(family, ts))
    if not allow_zero:
        strat = strat.filter(lambda e: not e.is_zero)
    return strat


def super_derivations(family, bound=4, max_terms=3):
    inner = elements(family, bound, max_terms)
    if family is AlgebraFamily.SW22:
        return st.builds(lambda e, lam: SuperDerivation(family, e, lam),
                         inner, st.sampled_from(RATIONALS))
    return inner.map(SuperDerivation.ad)


def raw_maps(family, bound=1, max_entries=5):
    """Raw tables over a small window whose images mix both parities."""
    pool = tuple(BasisVector(family, k, i)
                 for k in family.kinds for i in index_values(family, k, bound))
    even = tuple(b for b in pool if b.parity == 0)
    odd = tuple(b for b in pool if b.parity == 1)
    image = st.builds(lambda a, b, c, e: Element(family, ((a, c), (b, e))),
                      st.sampled_from(even), st.sampled_from(odd),
                      st.sampled_from(NONZERO_RATIONALS),
                      st.sampled_from(NONZERO_RATIONALS))
    return st.dictionaries(st.sampled_from(pool), image, max_size=max_entries) \
        .map(lambda table: RawLinearMap(family, table))


# Pieces of the surface grammar.  Which of them a family accepts varies:
# kinds and half-odd indices exist only in some families.
_COEFFICIENTS = ("", "2*", "-1/3*", "1/2*", "0*")
_GENERATORS = ("L", "G", "I", "Q")
_CENTRALS = ("C", "C1", "C2")
_INDICES = ("[0]", "[1]", "[-2]", "[1/2]", "[-3/2]")
_OUTER_PARTS = ("D", "-D", "3*D", "-1/2*D", "0*D")
# Characters outside the grammar, or in the wrong place: non-ASCII digits,
# underscores, decimal points, exponents and unbalanced brackets.
_JUNK = (" ", "_", ".", "e", "٣", "²", "[", "]", "(", ")")
_TOKENS = _GENERATORS + _CENTRALS + _JUNK + ("D", "ad(", "+", "-", "*", "/", "0", "1", "12")


def _expressions(family):
    own = st.sampled_from(family.noncentral_kinds) | st.sampled_from(family.central_kinds)
    kind = own | own | st.sampled_from(_GENERATORS + _CENTRALS)
    generator = st.tuples(kind, st.sampled_from(_INDICES)).map(
        lambda t: t[0] if t[0] in _CENTRALS else "".join(t))
    term = st.tuples(st.sampled_from(_COEFFICIENTS), generator).map("".join)
    sign = st.sampled_from(("", "-", "+", " + ", " - "))
    first = st.tuples(sign, term).map("".join)
    rest = st.lists(st.tuples(st.sampled_from(("+", "-", " + ", " - ")), term).map("".join),
                    max_size=3).map("".join)
    return st.just("0") | st.tuples(first, rest).map("".join)


def _derivations(family):
    outer = st.sampled_from(_OUTER_PARTS)
    ad = _expressions(family).map("ad({})".format)
    joined = st.tuples(ad, st.sampled_from((" + ", " - ", "+", "*")), outer).map("".join)
    return st.just("0") | outer | ad | joined


@st.composite
def surface_strings(draw, family, derivations=False):
    """Strings over the element grammar (or the derivation grammar), mostly
    of the family's own kinds, then with up to two junk tokens spliced in;
    or a soup of grammar and junk tokens."""
    soup = st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)
    text = draw((_derivations(family) if derivations else _expressions(family)) | soup)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_TOKENS)) + text[at:]
    return text
