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
             allow_zero=True):
    pairs = st.tuples(basis_vectors(family, bound, include_central),
                      st.sampled_from(NONZERO_RATIONALS))
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
