"""Normal-form derivations, the raw-map escape hatch, and Leibniz defects."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from superder import (
    OUTER_TAG,
    AlgebraFamily,
    Element,
    FamilyMismatchError,
    RawLinearMap,
    SuperDerivation,
    bracket,
    leibniz_defect,
    outer_action,
)
from superder.algebra import (
    KIND_C,
    KIND_C1,
    KIND_C2,
    KIND_G,
    KIND_I,
    KIND_L,
    KIND_Q,
)
from superder.derivations import _combination, has_outer

import strategies as sg
from helpers import (
    F,
    SVIR0,
    SW22,
    VIR,
    assert_canonical,
    bv,
    el,
    reference_bracket,
    reference_combination,
    reference_leibniz_defect,
)


def outer(family=SW22, lam=1):
    return SuperDerivation(family, Element.zero(family), F(lam))


class TestSuperDerivation:
    def test_inner_action_is_adjoint(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 0, 1)))
        assert d.apply(el(SVIR0, (KIND_L, 5, 1))) == el(SVIR0, (KIND_L, 5, -5))

    def test_outer_action_fixes_second_even_tower(self):
        x = el(SW22, (KIND_I, 5, 1), (KIND_L, 3, 1), (KIND_Q, 1, 2))
        assert outer().apply(x) == el(SW22, (KIND_I, 5, 1), (KIND_Q, 1, 2))
        assert outer_action(el(SW22, (KIND_C2, 0, 3))) == el(SW22, (KIND_C2, 0, 3))
        assert outer_action(el(SW22, (KIND_G, 2, 1), (KIND_C1, 0, 1))).is_zero

    def test_zero_derivation(self):
        z = SuperDerivation.zero(SVIR0)
        assert z.is_zero
        assert z.apply(el(SVIR0, (KIND_G, 2, 5))).is_zero

    def test_central_inner_terms_are_stripped(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1), (KIND_C, 0, 7)))
        assert d.inner == el(SVIR0, (KIND_L, 1, 1))
        assert SuperDerivation.ad(el(SVIR0, (KIND_C, 0, 1))).is_zero

    def test_outer_part_rejected_outside_sw22(self):
        with pytest.raises(ValueError):
            SuperDerivation(SVIR0, Element.zero(SVIR0), F(1))
        with pytest.raises(FamilyMismatchError):
            SuperDerivation(SVIR0, Element.zero(SW22))

    def test_vector_space_structure(self):
        d1 = SuperDerivation.ad(el(SW22, (KIND_L, 1, 1)))
        d2 = SuperDerivation(SW22, el(SW22, (KIND_I, 2, 3)), F(2))
        combo = d1 + 2 * d2
        assert combo.inner == el(SW22, (KIND_L, 1, 1), (KIND_I, 2, 6))
        assert combo.outer_lambda == 4
        assert (combo - combo).is_zero
        assert (-d2).outer_lambda == -2

    @given(data=st.data())
    def test_apply_is_the_bracket_plus_the_scaled_outer_action(self, data):
        d = data.draw(sg.super_derivations(SW22), label="d")
        x = data.draw(sg.elements(SW22, coefficients=sg.QUARTER_RATIONALS), label="x")
        assert d.apply(x) == bracket(d.inner, x) + d.outer_lambda * outer_action(x)

    @given(data=st.data())
    def test_apply_with_an_outer_part_keeps_canonical_order(self, data):
        """Element equality ignores the order of terms, but certificates print
        them in it, so the order of an image with an outer part is checked
        on its own: sorted keys and nonzero Fraction coefficients."""
        inner = data.draw(sg.elements(SW22, bound=4, max_terms=3), label="inner")
        lam = data.draw(st.sampled_from(sg.NONZERO_RATIONALS), label="lambda")
        x = data.draw(sg.elements(SW22, coefficients=sg.QUARTER_RATIONALS), label="x")
        assume(not outer_action(x).is_zero)
        terms = SuperDerivation(SW22, inner, lam).apply(x).terms
        assert list(terms) == sorted(terms)
        assert all(type(c) is Fraction and c != 0 for c in terms.values())

    def test_apply_drops_a_sum_that_cancels(self):
        # [L[0], I[1]] = -I[1], and D fixes I[1].
        d = SuperDerivation(SW22, el(SW22, (KIND_L, 0, 1)), F(1))
        assert d.apply(el(SW22, (KIND_I, 1, 1))).terms == {}

    @given(data=st.data())
    def test_combination_matches_the_multiplied_sum(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        scalars = st.sampled_from([0, 1, -1, 2, F(0), F(1), F(-1, 2), F(3, 4)])
        pairs = data.draw(st.lists(st.tuples(scalars, sg.super_derivations(family)),
                                   max_size=4), label="pairs")
        assert _combination(family, pairs) == reference_combination(family, pairs)

    def test_combination_with_zero_lambda_and_zero_scalars(self):
        d1 = SuperDerivation.ad(el(SW22, (KIND_L, 1, 1), (KIND_Q, 0, 2)))
        d2 = SuperDerivation(SW22, el(SW22, (KIND_L, 1, -1)), F(0))
        d3 = SuperDerivation(SW22, el(SW22, (KIND_I, 2, 1)), F(5))
        for pairs in [((1, d1), (1, d2)), ((F(1), d1), (0, d3)), ((2, d1), (F(0), d3), (1, d2))]:
            got = _combination(SW22, pairs)
            assert got == reference_combination(SW22, pairs)
            assert got.outer_lambda == 0 and type(got.outer_lambda) is Fraction

    def test_combination_refuses_derivations_of_different_families(self):
        sw22, svir0 = (SuperDerivation.ad(el(f, (KIND_L, 1, 1))) for f in (SW22, SVIR0))
        message = "cannot combine derivations of different families"
        for combine in (lambda: sw22 + svir0, lambda: sw22 - svir0,
                        lambda: _combination(SW22, ((1, sw22), (1, svir0)))):
            with pytest.raises(FamilyMismatchError, match=message):
                combine()

    @given(data=st.data())
    def test_apply_is_linear(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        d = data.draw(sg.super_derivations(family), label="d")
        x = data.draw(sg.elements(family), label="x")
        y = data.draw(sg.elements(family), label="y")
        a = data.draw(st.sampled_from(sg.NONZERO_RATIONALS), label="a")
        b = data.draw(st.sampled_from(sg.NONZERO_RATIONALS), label="b")
        assert d.apply(a * x + b * y) == a * d.apply(x) + b * d.apply(y)


class TestCoords:
    def test_sparse_inner_terms_then_outer_tag(self):
        d = SuperDerivation(SW22, el(SW22, (KIND_I, 2, 3), (KIND_L, -1, 1)), F(5, 2))
        coords = d.coords()
        assert coords == {bv(SW22, KIND_L, -1): 1, bv(SW22, KIND_I, 2): 3,
                          OUTER_TAG: F(5, 2)}
        assert list(coords)[-1] == OUTER_TAG
        assert SuperDerivation.ad(el(SW22, (KIND_G, 0, 2))).coords() \
            == {bv(SW22, KIND_G, 0): 2}
        assert SuperDerivation.zero(SVIR0).coords() == {}

    def test_from_coords_builds_the_normal_form(self):
        assert SuperDerivation.from_coords(SW22, {OUTER_TAG: 1}) == outer()
        assert SuperDerivation.from_coords(SVIR0, {bv(SVIR0, KIND_G, 1): F(-1, 2)}) \
            == SuperDerivation.ad(el(SVIR0, (KIND_G, 1, F(-1, 2))))
        assert SuperDerivation.from_coords(SW22, {}).is_zero

    def test_outer_coordinate_rejected_outside_sw22(self):
        for family in (VIR, SVIR0, AlgebraFamily.SVIR12):
            assert not has_outer(family)
            with pytest.raises(ValueError):
                SuperDerivation.from_coords(family, {OUTER_TAG: 1})
        assert has_outer(SW22)

    @given(data=st.data())
    def test_round_trip(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        d = data.draw(sg.super_derivations(family), label="d")
        coords = d.coords()
        assert all(c != 0 for c in coords.values())
        assert SuperDerivation.from_coords(family, coords) == d


class TestRawLinearMap:
    def test_zero_images_dropped_and_table_sorted(self):
        raw = RawLinearMap(SVIR0, {
            bv(SVIR0, KIND_G, 1): Element.zero(SVIR0),
            bv(SVIR0, KIND_L, 2): el(SVIR0, (KIND_L, 3, 1)),
            bv(SVIR0, KIND_L, -1): el(SVIR0, (KIND_G, 0, 2)),
        })
        assert list(raw.table) == [bv(SVIR0, KIND_L, -1), bv(SVIR0, KIND_L, 2)]

    def test_value_extends_linearly(self):
        raw = RawLinearMap(SVIR0, {bv(SVIR0, KIND_L, 0): el(SVIR0, (KIND_G, 1, 1))})
        x = el(SVIR0, (KIND_L, 0, 3), (KIND_G, 2, 5))
        assert raw.apply(x) == el(SVIR0, (KIND_G, 1, 3))

    def test_mixed_family_table_rejected(self):
        with pytest.raises(FamilyMismatchError):
            RawLinearMap(SVIR0, {bv(VIR, KIND_L, 0): el(VIR, (KIND_L, 1, 1))})


class TestLeibnizDefect:
    def test_inner_derivations_have_no_defect(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        assert leibniz_defect(d, el(SVIR0, (KIND_L, 2, 1)),
                              el(SVIR0, (KIND_L, 3, 1))).is_zero

    def test_outer_direction_has_no_defect(self):
        d = outer()
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert leibniz_defect(d, el(SW22, (KIND_L, m, 1)),
                                      el(SW22, (KIND_I, n, 1))).is_zero

    def test_shift_map_defect_is_frozen_value(self):
        family = SVIR0
        table = {bv(family, KIND_L, m): el(family, (KIND_L, m + 1, 1))
                 for m in range(-4, 5)}
        shift = RawLinearMap(family, table)
        defect = leibniz_defect(shift, el(family, (KIND_L, 1, 1)),
                                el(family, (KIND_L, 2, 1)))
        assert defect == el(family, (KIND_L, 4, 1))

    def test_odd_sign_matters_for_raw_maps(self):
        # A parity-flipping table: L_0 -> G_0; its defect on an odd pair
        # picks up the (-1)^{pq} sign and must be computed exactly.
        family = SVIR0
        raw = RawLinearMap(family, {bv(family, KIND_L, 0): el(family, (KIND_G, 0, 1))})
        x = el(family, (KIND_G, 1, 1))
        y = el(family, (KIND_G, -1, 1))
        # raw([x,y]) = raw(2 L_0 + 1/4 C) = 2 G_0; raw(x) = raw(y) = 0.
        assert leibniz_defect(raw, x, y) == el(family, (KIND_G, 0, 2))

    def test_mixed_parity_raw_map(self):
        # G_0 -> L_0 + G_1: d_0(G_0) = G_1 (same parity), d_1(G_0) = L_0.
        # [G_1, G_0] = 2 L_1 and the map kills L_1 and G_1, so the defect is
        # -([G_1, d_0(G_0)] - [G_1, d_1(G_0)]) = -(2 L_2 - G_1).
        family = SVIR0
        raw = RawLinearMap(family, {bv(family, KIND_G, 0):
                                    el(family, (KIND_L, 0, 1), (KIND_G, 1, 1))})
        x = el(family, (KIND_G, 1, 1))
        y = el(family, (KIND_G, 0, 1))
        assert leibniz_defect(raw, x, y) == el(family, (KIND_L, 2, -2), (KIND_G, 1, 1))

    @given(data=st.data())
    def test_matches_per_basis_vector_split(self, data):
        if data.draw(st.booleans(), label="raw"):
            family = data.draw(st.sampled_from(sg.SUPER_FAMILIES), label="family")
            d = data.draw(sg.raw_maps(family), label="d")
        else:
            family = SW22
            d = data.draw(st.builds(lambda e, lam: SuperDerivation(family, e, lam),
                                    sg.elements(family, bound=2),
                                    st.sampled_from(sg.NONZERO_RATIONALS)), label="d")
        x = data.draw(sg.elements(family, bound=1), label="x")
        y = data.draw(sg.elements(family, bound=1), label="y")
        assert leibniz_defect(d, x, y) == reference_leibniz_defect(d, x, y)

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            leibniz_defect(SuperDerivation.zero(VIR),
                           el(VIR, (KIND_L, 0, 1)), el(SVIR0, (KIND_L, 0, 1)))

    @given(data=st.data())
    def test_every_normal_form_derivation_satisfies_leibniz(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        d = data.draw(sg.super_derivations(family), label="d")
        x = data.draw(sg.elements(family), label="x")
        y = data.draw(sg.elements(family), label="y")
        assert leibniz_defect(d, x, y).is_zero


# Coefficients whose denominators differ, so sums of products meet unequal
# denominators in the bracket accumulator.
MIXED = tuple(sign * c for c in (F(1, 3), F(1, 4), F(5, 6), F(7)) for sign in (1, -1))


def mixed_elements(family, bound=2):
    pairs = st.tuples(sg.basis_vectors(family, bound), st.sampled_from(MIXED))
    return st.lists(pairs, max_size=4).map(lambda ts: Element(family, ts))


def mixed_maps(family):
    derivations = st.builds(
        lambda e, lam: SuperDerivation(family, e, lam if has_outer(family) else 0),
        mixed_elements(family), st.sampled_from(MIXED))
    raw = st.dictionaries(sg.basis_vectors(family, 1), mixed_elements(family, 1),
                          max_size=4).map(lambda t: RawLinearMap(family, t))
    return st.one_of(derivations, raw)


class TestPairAccumulator:
    @given(data=st.data())
    def test_mixed_denominators(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        x = data.draw(mixed_elements(family), label="x")
        y = data.draw(mixed_elements(family), label="y")
        d = data.draw(mixed_maps(family), label="d")
        value = bracket(x, y)
        assert value == Element(family, [
            (w, a * b * c) for u, a in x.terms.items() for v, b in y.terms.items()
            for w, c in reference_bracket(u, v).items()])
        assert_canonical(value)
        defect = leibniz_defect(d, x, y)
        assert defect == reference_leibniz_defect(d, x, y)
        assert_canonical(defect)
