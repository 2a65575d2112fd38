"""Normal-form derivations, the raw-map escape hatch, and Leibniz defects."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder import (
    OUTER_TAG,
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    RawLinearMap,
    SuperDerivation,
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
from superder.derivations import has_outer

import strategies as sg
from helpers import reference_leibniz_defect

F = Fraction
VIR = AlgebraFamily.VIR
SVIR0 = AlgebraFamily.SVIR0
SW22 = AlgebraFamily.SW22


def bv(family, kind, index=0):
    return BasisVector(family, kind, F(index))


def el(family, *terms):
    return Element(family, tuple((bv(family, k, i), F(c)) for k, i, c in terms))


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
