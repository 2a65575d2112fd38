"""Structure constants, canonical elements, and graded bracket laws."""

import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superder import (
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    GradedWindow,
    IndexNotInSectorError,
    KindNotInFamilyError,
    SuperDerivation,
    anchor_pair,
    antisymmetry_sweep,
    bracket,
    bracket_terms,
    homogeneity_check,
    jacobi_sweep,
    make_honest_oracle,
    outer_action,
    outer_derivation_defect_sweep,
    parse_element,
)
from superder.algebra import (
    CENTRAL_KINDS,
    KIND_C,
    KIND_C1,
    KIND_C2,
    KIND_G,
    KIND_I,
    KIND_L,
    KIND_ORDER,
    KIND_Q,
    ODD_KINDS,
    _reduced,
)
from superder.lemmas import _window_table

import strategies as sg
from helpers import (
    F,
    SVIR0,
    SVIR12,
    SW22,
    VIR,
    assert_canonical,
    bv,
    el,
    reference_antisymmetry_sweep,
    reference_bracket,
    reference_jacobi_sweep,
)


per_family = pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)


class TestFamilyTable:
    """Each ``AlgebraFamily`` row against the tests' own table of the families,
    ``strategies.FAMILIES``."""

    def test_one_table_row_per_member(self):
        assert set(sg.FAMILIES) == {family.value for family in AlgebraFamily}

    @per_family
    def test_kinds_with_the_centrals_last(self, family):
        r = sg.row(family)
        assert family.kinds == r.towers + r.centrals
        assert family.noncentral_kinds == r.towers
        assert family.central_kinds == r.centrals
        assert (not ODD_KINDS.isdisjoint(family.kinds)) == (family in sg.SUPER_FAMILIES)

    @per_family
    def test_half_odd_kinds_are_svir12s_g(self, family):
        assert family.half_odd_kinds == sg.row(family).half_odd
        for kind in family.noncentral_kinds:
            indices = sg.index_values(family, kind)
            assert all(i.denominator == 2 for i in indices) == (kind in family.half_odd_kinds)
            assert all(i.denominator == 1 for i in indices) == (kind not in family.half_odd_kinds)

    @per_family
    def test_outer_direction_in_sw22_alone(self, family):
        assert family.has_outer is sg.row(family).outer

    @per_family
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_tag_and_pickle_give_the_member(self, family, protocol):
        assert AlgebraFamily(family.value) is family
        assert AlgebraFamily.from_tag(family.value) is family
        assert pickle.loads(pickle.dumps(family, protocol)) is family

    @per_family
    def test_anchor_pair_parses_the_row(self, family):
        a1, a2, probe = family.anchors
        assert anchor_pair(family) == (parse_element(a1, family), parse_element(a2, family),
                                       None if probe is None else parse_element(probe, family))
        assert (probe is not None) is sg.row(family).outer


class TestBasisVector:
    def test_parities(self):
        assert bv(SVIR0, KIND_L, 3).parity == 0
        assert bv(SVIR12, KIND_G, F(1, 2)).parity == 1
        assert bv(SW22, KIND_C2).parity == 0
        assert bv(SW22, KIND_Q, 0).parity == 1
        assert bv(SW22, KIND_I, -2).parity == 0

    def test_kind_must_exist_in_family(self):
        with pytest.raises(KindNotInFamilyError):
            bv(SVIR0, KIND_Q, 0)
        with pytest.raises(KindNotInFamilyError):
            bv(VIR, KIND_G, 1)
        with pytest.raises(KindNotInFamilyError):
            bv(SVIR0, KIND_C2)

    def test_index_sector_enforced(self):
        with pytest.raises(IndexNotInSectorError):
            bv(SVIR0, KIND_G, F(1, 2))
        with pytest.raises(IndexNotInSectorError):
            bv(SVIR12, KIND_G, 1)
        with pytest.raises(IndexNotInSectorError):
            bv(SW22, KIND_L, F(1, 2))

    def test_central_index_is_normalised(self):
        assert bv(VIR, KIND_C, 7).index == 0
        assert bv(VIR, KIND_C, 7) == bv(VIR, KIND_C)

    def test_tokens(self):
        assert bv(SW22, KIND_L, 2).token() == "L[2]"
        assert bv(SVIR12, KIND_G, F(-3, 2)).token() == "G[-3/2]"
        assert bv(SW22, KIND_C1).token() == "C1"


@st.composite
def in_sector(draw, span=3):
    """A random (family, kind, index) with the index in its kind's sector;
    centrals get 0, the index they normalise to."""
    family = draw(st.sampled_from(sg.ALL_FAMILIES))
    kind = draw(st.sampled_from(sg.kinds(family)))
    if kind in sg.row(family).centrals:
        return family, kind, F(0)
    if kind in sg.row(family).half_odd:
        return family, kind, F(2 * draw(st.integers(-span, span - 1)) + 1, 2)
    return family, kind, F(draw(st.integers(-span, span)))


class TestBasisVectorKey:
    """The integer key (kind rank, 2 * index, family rank) against the plain
    tuple (family, kind, Fraction index) it encodes."""

    @given(a=in_sector(), b=in_sector())
    def test_equality_and_hash_follow_the_tuple(self, a, b):
        u, v = BasisVector(*a), BasisVector(*b)
        assert (u == v) == (a == b)
        assert (u != v) == (a != b)
        if u == v:
            assert hash(u) == hash(v)
        assert hash(u) == hash(tuple(u))
        assert len({u, v}) == len({a, b})
        assert {u: 1}.get(BasisVector(*b)) == (1 if a == b else None)

    @given(triples=st.lists(in_sector(span=6), max_size=12))
    def test_canonical_order_is_the_tuple_order(self, triples):
        vecs = [BasisVector(*t) for t in triples]
        ranks = list(AlgebraFamily)
        by_tuple = sorted(vecs, key=lambda b: (KIND_ORDER.index(b.kind), b.index,
                                               ranks.index(b.family)))
        assert sorted(vecs) == by_tuple

    @given(t=in_sector(span=10 ** 6))
    def test_index_round_trips_as_a_fraction(self, t):
        family, kind, index = t
        u = BasisVector(family, kind, index)
        assert type(u.index) is Fraction and u.index == index
        assert BasisVector(family, kind, u.index) == u
        assert (u.family, u.kind) == (family, kind)

    @given(t=in_sector())
    def test_repr_and_token(self, t):
        family, kind, index = t
        u = BasisVector(family, kind, index)
        token = kind if kind in CENTRAL_KINDS else "%s[%s]" % (kind, index)
        assert u.token() == token
        assert repr(u) == "BasisVector(%s, %s)" % (family.value, token)

    @given(t=in_sector())
    def test_immutable(self, t):
        u = BasisVector(*t)
        for attr in ("family", "kind", "index", "sort_key", "extra"):
            with pytest.raises(AttributeError):
                setattr(u, attr, 1)
            with pytest.raises(AttributeError):
                delattr(u, attr)
        assert BasisVector(*t) == u and hash(BasisVector(*t)) == hash(u)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_and_pickles_compare_equal(self, protocol):
        u = bv(SVIR12, KIND_G, F(-3, 2))
        assert copy.deepcopy(u) == u
        w = pickle.loads(pickle.dumps(u, protocol))
        assert type(w) is BasisVector and w == u and repr(w) == repr(u)

    def test_int_and_fraction_indices_agree(self):
        assert BasisVector(SW22, KIND_Q, 2) == BasisVector(SW22, KIND_Q, F(4, 2))
        assert BasisVector(SW22, KIND_Q, 2) != BasisVector(SW22, KIND_I, 2)
        assert BasisVector(SVIR0, KIND_L, 2) != BasisVector(SW22, KIND_L, 2)


def _exact_terms(x):
    return all(type(c) is Fraction for c in x.terms.values())


class TestExactness:
    """Coefficients stay exact: elements store exactly Fraction, the table
    returns int multiples of 1/12, and no entry point takes a float."""

    @given(data=st.data())
    def test_element_coefficients_are_fractions(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        coeff = st.one_of(st.integers(-5, 5), st.sampled_from(sg.RATIONALS))
        terms = data.draw(st.lists(st.tuples(sg.basis_vectors(family), coeff),
                                   max_size=6), label="terms")
        x = Element(family, terms)
        y = data.draw(sg.elements(family), label="y")
        k = data.draw(coeff, label="k")
        for value in (x, bracket(x, y), bracket(y, x), x + y, x - y, -x, k * x,
                      x * k, Element.basis(BasisVector(family, KIND_L, 1), True)):
            assert _exact_terms(value)

    def test_whole_number_sums_stay_fractions(self):
        x = Element(SVIR12, ((bv(SVIR12, KIND_L, 0), F(1, 2)),
                             (bv(SVIR12, KIND_L, 0), F(1, 2)),
                             (bv(SVIR12, KIND_L, 1), 3)))
        assert x.terms == {bv(SVIR12, KIND_L, 0): 1, bv(SVIR12, KIND_L, 1): 3}
        assert _exact_terms(x)

    def test_element_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            Element(SVIR12, [(bv(SVIR12, KIND_L, 1), 0.1)])
        with pytest.raises(TypeError):
            Element(SVIR12, {bv(SVIR12, KIND_L, 1): 2.0})

    def test_basis_element_rejects_a_float_coefficient(self):
        with pytest.raises(TypeError):
            Element.basis(bv(SVIR12, KIND_L, 1), 0.5)

    def test_basis_vector_rejects_a_float_index(self):
        with pytest.raises(TypeError):
            BasisVector(SVIR12, KIND_G, 0.5)
        with pytest.raises(TypeError):
            BasisVector(SVIR0, KIND_L, 1.0)

    def test_derivation_rejects_a_float_outer_coefficient(self):
        with pytest.raises(TypeError):
            SuperDerivation(SW22, Element.zero(SW22), outer_lambda=0.1)
        assert SuperDerivation(SW22, Element.zero(SW22), True).outer_lambda == 1

    def test_window_rejects_a_float_bound(self):
        with pytest.raises(TypeError):
            GradedWindow(2.5)
        assert GradedWindow(2).bound == 2 and type(GradedWindow(2).bound) is Fraction

    # Strings would bypass the surface grammar, which rejects decimals and
    # exponents; only int and Fraction values cross the library boundary.

    def test_element_rejects_a_string_coefficient(self):
        with pytest.raises(TypeError):
            Element(SVIR12, [(bv(SVIR12, KIND_L, 1), "1e-3")])
        with pytest.raises(TypeError):
            Element.basis(bv(SVIR12, KIND_L, 1), "1/2")

    def test_basis_vector_rejects_a_string_index(self):
        with pytest.raises(TypeError):
            BasisVector(SVIR12, KIND_G, "1.5")

    def test_window_rejects_a_string_bound(self):
        with pytest.raises(TypeError):
            GradedWindow("2.5")

    @pytest.mark.parametrize("sweep", [
        lambda bound: jacobi_sweep(VIR, bound),
        lambda bound: antisymmetry_sweep(VIR, bound),
        outer_derivation_defect_sweep,
    ], ids=["jacobi", "antisymmetry", "outer_derivation_defect"])
    @pytest.mark.parametrize("bound", [2.5, "2"])
    def test_sweeps_reject_an_inexact_bound(self, sweep, bound):
        with pytest.raises(TypeError):
            sweep(bound)

    @pytest.mark.parametrize("scalar", [0.5, "1e-1"])
    def test_homogeneity_check_rejects_an_inexact_scalar(self, scalar):
        x = el(SVIR0, (KIND_L, 1, 1))
        oracle = make_honest_oracle(SuperDerivation.ad(x), GradedWindow(0), seed=0)
        with pytest.raises(TypeError):
            homogeneity_check(oracle, [(scalar, x)])


class TestElement:
    def test_like_terms_merge_and_zeros_drop(self):
        x = el(SVIR0, (KIND_L, 1, 2), (KIND_L, 1, -2), (KIND_G, 0, 3))
        assert x == el(SVIR0, (KIND_G, 0, 3))
        assert el(SVIR0, (KIND_L, 1, 1), (KIND_L, 1, -1)).is_zero

    def test_terms_sorted_by_kind_then_index(self):
        x = el(SW22, (KIND_C2, 0, 1), (KIND_Q, -1, 1), (KIND_L, 5, 1),
               (KIND_G, 2, 1), (KIND_I, 0, 1))
        assert [b.kind for b in x.support()] == [KIND_L, KIND_G, KIND_I,
                                                 KIND_Q, KIND_C2]

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            el(VIR, (KIND_L, 0, 1)) + el(SVIR0, (KIND_L, 0, 1))
        with pytest.raises(FamilyMismatchError):
            bracket(el(VIR, (KIND_L, 0, 1)), el(SVIR0, (KIND_L, 0, 1)))
        with pytest.raises(FamilyMismatchError):
            Element(VIR, ((bv(SVIR0, KIND_L, 0), F(1)),))

    def test_scalar_arithmetic(self):
        x = el(SVIR0, (KIND_L, 1, 1), (KIND_G, 2, -3))
        assert 2 * x == el(SVIR0, (KIND_L, 1, 2), (KIND_G, 2, -6))
        assert x * F(1, 3) == el(SVIR0, (KIND_L, 1, F(1, 3)), (KIND_G, 2, -1))
        assert -x + x == Element.zero(SVIR0)

    @pytest.mark.parametrize("op, expected", [
        (lambda x: x + 1, TypeError),
        (lambda x: x - 1, TypeError),
        (lambda x: 1.5 * x, TypeError),
        (lambda x: x == 3, False),
        (lambda x: repr(Element(x.family)), "Element(vir, 0)"),
    ], ids=["plus-int", "minus-int", "float-times", "equals-int", "zero-repr"])
    def test_non_element_operands_and_the_zero_repr(self, op, expected):
        """A non-element operand gets NotImplemented, so Python raises
        TypeError, or compares by identity; the zero element prints as 0."""
        x = el(VIR, (KIND_L, 1, 1))
        if expected is TypeError:
            with pytest.raises(TypeError):
                op(x)
        else:
            assert op(x) == expected


class TestCanonicalConstructor:
    """Results built from terms that are already canonical, without the
    checks of ``Element.__init__``, equal what those checks would give."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_results_are_canonical(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        x = data.draw(sg.elements(family), label="x")
        y = data.draw(sg.elements(family), label="y")
        k = data.draw(st.one_of(st.integers(-3, 3), st.sampled_from(sg.RATIONALS)),
                      label="k")
        u = data.draw(sg.basis_vectors(family), label="u")
        for value in (bracket(x, y), -x, k * x, x * k, outer_action(x),
                      Element.basis(u, k)):
            assert_canonical(value)


class TestBracketTable:
    def test_even_part_with_central_charge(self):
        assert bracket(el(SVIR0, (KIND_L, 2, 1)), el(SVIR0, (KIND_L, -2, 1))) \
            == el(SVIR0, (KIND_L, 0, 4), (KIND_C, 0, F(1, 2)))
        assert bracket(el(VIR, (KIND_L, 2, 1)), el(VIR, (KIND_L, -2, 1))) \
            == el(VIR, (KIND_L, 0, 4), (KIND_C, 0, F(1, 2)))

    def test_odd_odd_with_central_charge(self):
        assert bracket(el(SVIR0, (KIND_G, 1, 1)), el(SVIR0, (KIND_G, -1, 1))) \
            == el(SVIR0, (KIND_L, 0, 2), (KIND_C, 0, F(1, 4)))

    def test_central_elements_bracket_to_zero(self):
        assert bracket(el(VIR, (KIND_L, 0, 1)), el(VIR, (KIND_C, 0, 1))).is_zero
        assert bracket(el(SW22, (KIND_C1, 0, 1)),
                       el(SW22, (KIND_G, 3, 1))).is_zero

    def test_half_index_odd_generators(self):
        x = el(SVIR12, (KIND_G, F(1, 2), 1))
        assert bracket(x, x) == el(SVIR12, (KIND_L, 1, 2))

    def test_even_odd_cross_terms(self):
        assert bracket(el(SW22, (KIND_I, 2, 1)), el(SW22, (KIND_G, -1, 1))) \
            == el(SW22, (KIND_Q, 1, 2))
        assert bracket(el(SW22, (KIND_G, 1, 1)), el(SW22, (KIND_Q, -1, 1))) \
            == el(SW22, (KIND_I, 0, 2), (KIND_C2, 0, F(1, 4)))

    def test_unlisted_pairs_vanish(self):
        assert bracket(el(SW22, (KIND_I, 3, 1)), el(SW22, (KIND_I, 5, 1))).is_zero
        assert bracket(el(SW22, (KIND_I, 1, 1)), el(SW22, (KIND_Q, 2, 1))).is_zero
        assert bracket(el(SW22, (KIND_Q, 1, 1)), el(SW22, (KIND_Q, -1, 1))).is_zero

    def test_primary_central_charge_depends_on_family(self):
        out = bracket(el(SW22, (KIND_L, 2, 1)), el(SW22, (KIND_L, -2, 1)))
        assert out == el(SW22, (KIND_L, 0, 4), (KIND_C1, 0, F(1, 2)))
        out = bracket(el(SW22, (KIND_L, 2, 1)), el(SW22, (KIND_I, -2, 1)))
        assert out == el(SW22, (KIND_I, 0, 4), (KIND_C2, 0, F(1, 2)))

    def test_reversed_orders_follow_super_antisymmetry(self):
        assert bracket(el(SVIR0, (KIND_G, -1, 1)), el(SVIR0, (KIND_G, 1, 1))) \
            == el(SVIR0, (KIND_L, 0, 2), (KIND_C, 0, F(1, 4)))
        assert bracket(el(SVIR0, (KIND_L, -2, 1)), el(SVIR0, (KIND_L, 2, 1))) \
            == el(SVIR0, (KIND_L, 0, -4), (KIND_C, 0, F(-1, 2)))
        assert bracket(el(SW22, (KIND_G, -1, 1)), el(SW22, (KIND_I, 2, 1))) \
            == el(SW22, (KIND_Q, 1, -2))
        assert bracket(el(SW22, (KIND_Q, -1, 1)), el(SW22, (KIND_G, 1, 1))) \
            == el(SW22, (KIND_I, 0, 2), (KIND_C2, 0, F(1, 4)))


@pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)
class TestBracketLaws:
    def test_super_antisymmetry_window(self, family):
        vecs = [bv(family, k, i) for k in sg.kinds(family)
                for i in sg.index_values(family, k, 3)]
        for u in vecs:
            for v in vecs:
                sign = 1 if (u.parity and v.parity) else -1
                lhs = bracket(Element.basis(u), Element.basis(v))
                rhs = sign * bracket(Element.basis(v), Element.basis(u))
                assert lhs == rhs, (u, v)

    def test_whole_table_matches_reference(self, family):
        vecs = GradedWindow(F(3)).basis_vectors(family)
        for u in vecs:
            for v in vecs:
                terms = bracket_terms(u, v)
                # Exact constants: ints, 12 times the true value; never a
                # Fraction, a float or a bool.
                for _, k in terms:
                    assert type(k) is int, (u, v, k)
                assert {w: F(k, 12) for w, k in terms} == reference_bracket(u, v), (u, v)

    def test_twelve_is_the_least_common_denominator(self, family):
        """Over a bound-2 window the gcd of 12 and every table int is 12
        over the lcm of the true constants' denominators: 2 in vir, 12 in
        svir0, 6 in svir12 and 12 in sw22."""
        vecs = GradedWindow(F(2)).basis_vectors(family)
        ks = [k for u in vecs for v in vecs for _, k in bracket_terms(u, v)]
        expected = {VIR: 6, SVIR0: 1, SVIR12: 2, SW22: 1}[family]
        assert math.gcd(12, *ks) == expected

    def test_grading_of_bracket_terms(self, family):
        vecs = [bv(family, k, i) for k in sg.row(family).towers
                for i in sg.index_values(family, k, 4)]
        for u in vecs:
            for v in vecs:
                for w, c in bracket_terms(u, v):
                    assert c != 0
                    if w.is_central:
                        assert u.index + v.index == 0
                    else:
                        assert w.index == u.index + v.index


@pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)
class TestBracketProperties:
    @given(data=st.data())
    def test_graded_jacobi_on_random_triples(self, family, data):
        u = data.draw(sg.basis_vectors(family, 3), label="u")
        v = data.draw(sg.basis_vectors(family, 3), label="v")
        w = data.draw(sg.basis_vectors(family, 3), label="w")
        sign = -1 if (u.parity and v.parity) else 1
        eu, ev, ew = (Element.basis(b) for b in (u, v, w))
        lhs = bracket(eu, bracket(ev, ew))
        rhs = bracket(bracket(eu, ev), ew) + sign * bracket(ev, bracket(eu, ew))
        assert lhs == rhs

    @given(data=st.data())
    def test_bilinearity(self, family, data):
        x = data.draw(sg.elements(family), label="x")
        y = data.draw(sg.elements(family), label="y")
        z = data.draw(sg.elements(family), label="z")
        k = data.draw(st.sampled_from(sg.NONZERO_RATIONALS), label="k")
        assert bracket(k * x, y) == k * bracket(x, y)
        assert bracket(x, k * y) == k * bracket(x, y)
        assert bracket(x + z, y) == bracket(x, y) + bracket(z, y)


def _assert_reference_bracket(x, y):
    """bracket(x, y) is the bilinear sum of ``reference_bracket`` over the
    terms of x and y, in canonical order, each coefficient a reduced Fraction."""
    expected = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            for w, c in reference_bracket(u, v).items():
                expected[w] = expected.get(w, 0) + cu * cv * c
    got = bracket(x, y).terms
    assert got == {w: c for w, c in expected.items() if c}, (x, y)
    assert list(got) == sorted(got), (x, y)
    for c in got.values():
        assert type(c) is Fraction and c.denominator > 0, (x, y, c)
        assert math.gcd(c.numerator, c.denominator) == 1, (x, y, c)


class TestReducedCoefficientCache:
    """``bracket`` reduces each output coefficient through one bounded LRU
    cache keyed by the unreduced int pair.  No other test fills it past its
    size, so these do, and read brackets whose pairs it evicted."""

    def test_the_cache_is_bounded(self):
        maxsize = _reduced.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16

    def test_brackets_match_the_reference_past_eviction(self):
        maxsize = _reduced.cache_info().maxsize
        pools = {f: GradedWindow(F(12)).basis_vectors(f) for f in sg.ALL_FAMILIES}
        rng = random.Random(23)

        def draw(family):
            return Element(family, [(rng.choice(pools[family]),
                                     rng.choice(sg.QUARTER_RATIONALS))
                                    for _ in range(rng.randint(2, 4))])

        _reduced.cache_clear()
        pairs = []
        while _reduced.cache_info().misses <= maxsize:
            assert len(pairs) < 10 * maxsize, "the draws repeat too few pairs"
            family = sg.ALL_FAMILIES[len(pairs) % len(sg.ALL_FAMILIES)]
            pairs.append((draw(family), draw(family)))
            _assert_reference_bracket(*pairs[-1])
        assert _reduced.cache_info().currsize == maxsize
        # The first pairs' coefficients were evicted long ago: read them again.
        for x, y in pairs[:300]:
            _assert_reference_bracket(x, y)


def _rebind_bracket(monkeypatch, patched):
    """Rebind bracket_terms in every superder module to ``patched``."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "superder" \
                and getattr(module, "bracket_terms", None) is bracket_terms:
            monkeypatch.setattr(module, "bracket_terms", patched)


def _scale_bracket(monkeypatch, pairs, factor):
    """Rebind bracket_terms in every superder module so that the given
    ordered basis pairs (every pair, for None) bracket to ``factor`` times
    their true value."""

    def scaled(u, v):
        terms = bracket_terms(u, v)
        if pairs is None or (u, v) in pairs:
            return tuple((w, factor * c) for w, c in terms)
        return terms

    _rebind_bracket(monkeypatch, scaled)


def _bracketing_pairs(family, bound):
    """Ordered pairs with a nonzero bracket that a sweep at this bound reads:
    a window vector against a vector of the doubled window, in either order."""
    window = GradedWindow(bound).basis_vectors(family)
    wide = GradedWindow(2 * bound).basis_vectors(family)
    return tuple(pair for u in window for x in wide for pair in ((u, x), (x, u))
                 if bracket_terms(*pair))


class TestSweepsDetectViolations:
    L1 = bv(SVIR0, KIND_L, 1)
    G0 = bv(SVIR0, KIND_G, 0)

    def test_one_sided_change_breaks_antisymmetry(self, monkeypatch):
        _scale_bracket(monkeypatch, {(self.L1, self.G0)}, 2)
        assert antisymmetry_sweep(SVIR0, 2) == (2, 121)

    @pytest.mark.parametrize("family, bound", [(SVIR0, 4), (SW22, 2)],
                             ids=lambda value: getattr(value, "value", str(value)))
    def test_antisymmetry_reads_only_window_pairs(self, monkeypatch, family, bound):
        """Antisymmetry is a law of window pairs alone: the sweep brackets
        every window vector and no vector that a window bracket reaches."""
        seen = set()

        def recording(u, v):
            seen.update((u, v))
            return bracket_terms(u, v)

        _rebind_bracket(monkeypatch, recording)
        antisymmetry_sweep(family, bound)
        assert seen == set(GradedWindow(bound).basis_vectors(family))

    def test_one_sided_change_on_a_reached_row(self, monkeypatch):
        """[L3, G0] is read only as a window vector against a reached one,
        never as a window pair.  Scaled in that order alone, the table is not
        mirrored, and the full sweep must read [L3, G0] itself: deriving it
        from [G0, L3] would find no violation."""
        L3 = bv(SVIR0, KIND_L, 3)
        _scale_bracket(monkeypatch, {(L3, self.G0)}, 2)
        assert not _window_table(SVIR0, 2)[3]
        assert jacobi_sweep(SVIR0, 2) == reference_jacobi_sweep(SVIR0, 2) == (4, 1331)
        assert antisymmetry_sweep(SVIR0, 2) == (0, 121)

    def test_two_sided_change_breaks_only_jacobi(self, monkeypatch):
        _scale_bracket(monkeypatch, {(self.L1, self.G0), (self.G0, self.L1)}, 2)
        assert antisymmetry_sweep(SVIR0, 2) == (0, 121)
        violations, triples = jacobi_sweep(SVIR0, 2)
        assert triples == 1331
        assert violations == 72

    @pytest.mark.parametrize("factor", [F(3, 5), F(5, 7)])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)
    def test_scaling_the_whole_table_keeps_both_laws(self, monkeypatch, family, factor):
        """Both laws are homogeneous in the constants, so a table scaled by a
        factor whose denominator no true constant has still satisfies them;
        the sweeps take the patched Fraction constants as they come."""
        _scale_bracket(monkeypatch, None, factor)
        assert antisymmetry_sweep(family, 2)[0] == 0
        assert jacobi_sweep(family, 2)[0] == 0

    @pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sweeps_match_the_reference(self, family, data):
        """The scaled int table counts what per-triple Fraction sums count,
        also when one pair's constants are scaled by 0, -1, 2, 3/5 or 5/7."""
        bound = data.draw(st.sampled_from((F(1, 2), F(1), F(3, 2), F(2))), label="bound")
        pair = data.draw(st.sampled_from(_bracketing_pairs(family, bound)), label="pair")
        factor = data.draw(st.sampled_from((0, -1, 2, F(3, 5), F(5, 7))), label="factor")
        with pytest.MonkeyPatch.context() as monkeypatch:
            _scale_bracket(monkeypatch, {pair}, factor)
            assert antisymmetry_sweep(family, bound) \
                == reference_antisymmetry_sweep(family, bound)
            assert jacobi_sweep(family, bound) == reference_jacobi_sweep(family, bound)

    @pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_orbit_sweep_matches_the_reference(self, family, data):
        """A pair and its transpose scaled by one factor of 0, -1, 2, 3/5 or 5/7
        keep the table graded antisymmetric term by term, so the Jacobi sweep
        evaluates sorted triples only; weighted by their orbits, its count of
        real violations is the reference count."""
        bound = data.draw(st.sampled_from((F(1, 2), F(1), F(3, 2), F(2))), label="bound")
        u, v = data.draw(st.sampled_from(_bracketing_pairs(family, bound)), label="pair")
        factor = data.draw(st.sampled_from((0, -1, 2, F(3, 5), F(5, 7))), label="factor")
        with pytest.MonkeyPatch.context() as monkeypatch:
            _scale_bracket(monkeypatch, {(u, v), (v, u)}, factor)
            assert _window_table(family, bound)[3]
            assert antisymmetry_sweep(family, bound) \
                == reference_antisymmetry_sweep(family, bound)
            assert jacobi_sweep(family, bound) == reference_jacobi_sweep(family, bound)

    def test_a_wrong_parity_in_an_antisymmetric_table_takes_the_full_sweep(self, monkeypatch):
        """[L1, G0] sent to the even L[1], with opposite signs in the two
        orders, is antisymmetric term by term but not graded: the orbit
        identities do not hold, and every triple must be evaluated."""
        wrong = {(self.L1, self.G0): ((self.L1, 12),), (self.G0, self.L1): ((self.L1, -12),)}
        _rebind_bracket(monkeypatch, lambda u, v: wrong.get((u, v)) or bracket_terms(u, v))
        assert not _window_table(SVIR0, 2)[3]
        assert antisymmetry_sweep(SVIR0, 2) == reference_antisymmetry_sweep(SVIR0, 2)
        assert jacobi_sweep(SVIR0, 2) == reference_jacobi_sweep(SVIR0, 2)

    @pytest.mark.parametrize("bound", [F(1, 2), F(1), F(3, 2), F(2), F(4)])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES, ids=lambda f: f.value)
    def test_the_true_table_takes_the_orbit_sweep(self, family, bound):
        """A check that rejected the true table would keep every count exact
        but sweep all n^3 triples; no count shows that, so this test does.
        Nor would rows built for reached vectors, which the orbit sweep reads
        off the window rows instead."""
        n, _, rows, mirrored = _window_table(family, bound)
        assert mirrored
        assert len(rows) == n
