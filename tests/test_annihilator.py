"""Annihilator spaces: evaluation matrices, kernels, and span queries."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder import (
    OUTER_TAG,
    AlgebraFamily,
    BasisVector,
    DerivationSpace,
    Element,
    GradedWindow,
    IndexNotInSectorError,
    SuperDerivation,
    ZeroTargetError,
    annihilator_basis,
    derivation_coords,
    evaluation_matrix,
    span_contains,
)
from superder.algebra import KIND_C, KIND_C1, KIND_C2, KIND_G, KIND_I, KIND_L, KIND_Q

from helpers import dense_nullspace, dense_rank, labeled_dense
import strategies as sg

F = Fraction
SVIR0 = AlgebraFamily.SVIR0
SVIR12 = AlgebraFamily.SVIR12
SW22 = AlgebraFamily.SW22


def bv(family, kind, index=0):
    return BasisVector(family, kind, F(index))


def el(family, *terms):
    return Element(family, tuple((bv(family, k, i), F(c)) for k, i, c in terms))


class TestGradedWindow:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            GradedWindow(F(-1))

    def test_generators_svir0(self):
        gens = GradedWindow(F(2)).generators(SVIR0)
        assert gens == tuple(
            [bv(SVIR0, KIND_L, k) for k in range(-2, 3)]
            + [bv(SVIR0, KIND_G, k) for k in range(-2, 3)]
        )

    def test_generators_svir12_use_half_odd_g_indices(self):
        gens = GradedWindow(F(2)).generators(SVIR12)
        g_indices = sorted(b.index for b in gens if b.kind == KIND_G)
        assert g_indices == [F(-3, 2), F(-1, 2), F(1, 2), F(3, 2)]
        assert len(gens) == 9

    def test_half_integral_bound(self):
        gens = GradedWindow(F(5, 2)).generators(SVIR12)
        g_indices = [b.index for b in gens if b.kind == KIND_G]
        l_indices = [b.index for b in gens if b.kind == KIND_L]
        assert max(g_indices) == F(5, 2)
        assert max(l_indices) == 2

    @pytest.mark.parametrize("bound", [F(0), F(1, 2), F(2), F(5, 2)])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_generators_are_every_legal_index_in_the_window(self, family, bound):
        # Independent of the sector rule: try every half-integer in range.
        legal = []
        for kind in family.noncentral_kinds:
            for m in range(-int(2 * bound), int(2 * bound) + 1):
                try:
                    legal.append(BasisVector(family, kind, F(m, 2)))
                except IndexNotInSectorError:
                    pass
        assert GradedWindow(bound).generators(family) == tuple(legal)

    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_directions_end_with_the_outer_tag_in_sw22_only(self, family):
        window = GradedWindow(F(2))
        dirs = window.directions(family)
        gens = window.generators(family)
        if family is SW22:
            assert dirs == gens + (OUTER_TAG,)
        else:
            assert dirs == gens

    def test_basis_vectors_put_centrals_last(self):
        vecs = GradedWindow(F(1)).basis_vectors(SW22)
        assert vecs[-2:] == (bv(SW22, KIND_C1), bv(SW22, KIND_C2))
        assert vecs[:-2] == GradedWindow(F(1)).generators(SW22)


class TestEvaluationMatrix:
    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            evaluation_matrix(Element.zero(SVIR0), GradedWindow(F(2)))
        with pytest.raises(ZeroTargetError):
            annihilator_basis(Element.zero(SVIR0), GradedWindow(F(2)))

    def test_spot_entries_for_odd_generator(self):
        # Target G_2 in svir0: [L_k, G_2] = (k/2 - 2) G_{k+2} and
        # [G_j, G_2] = 2 L_{j+2} + delta_{j+2,0} (j^2 - 1/4)/3 C.
        m = evaluation_matrix(el(SVIR0, (KIND_G, 2, 1)), GradedWindow(F(6)))
        for k in (-6, -1, 0, 3, 6):
            assert m.entries[(bv(SVIR0, KIND_G, k + 2), bv(SVIR0, KIND_L, k))] \
                == F(k, 2) - 2
        for j in (-6, 0, 5):
            assert m.entries[(bv(SVIR0, KIND_L, j + 2), bv(SVIR0, KIND_G, j))] == 2
        assert m.entries[(bv(SVIR0, KIND_C), bv(SVIR0, KIND_G, -2))] == F(5, 4)

    def test_column_of_the_annihilating_generator_is_empty(self):
        m = evaluation_matrix(el(SVIR0, (KIND_G, 2, 1)), GradedWindow(F(6)))
        col = bv(SVIR0, KIND_L, 4)
        assert col in m.col_labels
        assert all((r, col) not in m.entries for r in m.row_labels)

    @pytest.mark.parametrize("bound", [F(1), F(3, 2), F(3)])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_columns_are_the_window_directions(self, family, bound):
        target = el(family, (KIND_L, 1, 1))
        window = GradedWindow(bound)
        assert evaluation_matrix(target, window).col_labels == window.directions(family)

    def test_outer_column_present_only_for_sw22(self):
        target = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
        m = evaluation_matrix(target, GradedWindow(F(1)))
        assert m.col_labels[-1] == OUTER_TAG
        assert m.entries[(bv(SW22, KIND_I, 0), OUTER_TAG)] == 1
        assert m.entries[(bv(SW22, KIND_Q, 0), OUTER_TAG)] == 1
        m0 = evaluation_matrix(el(SVIR0, (KIND_L, 0, 1)), GradedWindow(F(1)))
        assert OUTER_TAG not in m0.col_labels


class TestAnnihilatorBasis:
    def test_odd_generator_has_one_dimensional_annihilator(self):
        space = annihilator_basis(el(SVIR0, (KIND_G, 2, 1)), GradedWindow(F(6)))
        assert space.basis == (SuperDerivation.ad(el(SVIR0, (KIND_L, 4, 1))),)

    def test_sw22_odd_generator_gains_two_directions(self):
        space = annihilator_basis(el(SW22, (KIND_G, 1, 1)), GradedWindow(F(4)))
        assert space.basis == (
            SuperDerivation.ad(el(SW22, (KIND_L, 2, 1))),
            SuperDerivation.ad(el(SW22, (KIND_I, 2, 1))),
            SuperDerivation(SW22, Element.zero(SW22), F(1)),
        )

    def test_mixed_even_element(self):
        target = el(SW22, (KIND_L, 3, 1), (KIND_I, 6, 1), (KIND_Q, 6, 1))
        space = annihilator_basis(target, GradedWindow(F(9)))
        assert space.basis == (
            SuperDerivation.ad(el(SW22, (KIND_L, 3, 1), (KIND_I, 6, 1),
                                  (KIND_Q, 6, 1))),
            SuperDerivation.ad(el(SW22, (KIND_I, 3, 1))),
        )

    def test_even_probe_annihilator_dimension_and_members(self):
        window = GradedWindow(F(2))
        target = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
        space = annihilator_basis(target, window)
        assert space.dimension == 12
        claimed = [SuperDerivation.ad(el(SW22, (KIND_L, 0, 1))),
                   SuperDerivation.ad(el(SW22, (KIND_L, 1, 1), (KIND_G, 1, F(-1, 2))))]
        for k in range(-2, 3):
            claimed.append(SuperDerivation.ad(el(SW22, (KIND_I, k, 1))))
            claimed.append(SuperDerivation.ad(el(SW22, (KIND_Q, k, 1))))
        assert all(space.contains(d) for d in claimed)
        assert all(d.outer_lambda == 0 for d in space.basis)
        assert dense_rank([derivation_coords(d, window) for d in claimed]) == 12

    def test_central_targets(self):
        # Nothing moves a central charge except, for C2, the outer direction.
        window = GradedWindow(F(2))
        c = annihilator_basis(el(SVIR0, (KIND_C, 0, 1)), window)
        assert c.dimension == len(window.generators(SVIR0)) == 10
        c2 = annihilator_basis(el(SW22, (KIND_C2, 0, 1)), window)
        assert c2.dimension == len(window.generators(SW22)) == 20
        assert all(d.outer_lambda == 0 for d in c2.basis)
        c1 = annihilator_basis(el(SW22, (KIND_C1, 0, 1)), window)
        assert c1.dimension == 21
        assert SuperDerivation(SW22, Element.zero(SW22), F(1)) in c1.basis

    def test_results_are_memoised(self):
        target = el(SVIR12, (KIND_G, F(1, 2), 1))
        first = annihilator_basis(target, GradedWindow(F(3)))
        assert annihilator_basis(target, GradedWindow(F(3))) is first

    @given(data=st.data())
    def test_every_basis_member_kills_the_target(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        target = data.draw(sg.elements(family, bound=2, allow_zero=False),
                           label="target")
        space = annihilator_basis(target, GradedWindow(F(3)))
        for d in space.basis:
            assert d.apply(target).is_zero

    @given(data=st.data())
    def test_kernel_agrees_with_dense_elimination(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        target = data.draw(sg.elements(family, bound=2, allow_zero=False),
                           label="target")
        window = GradedWindow(F(2))
        m = evaluation_matrix(target, window)
        expected = dense_nullspace(labeled_dense(m), len(m.col_labels))
        space = annihilator_basis(target, window)
        got = [derivation_coords(d, window) for d in space.basis]
        assert got == expected

    @given(data=st.data())
    def test_window_growth_keeps_old_directions(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        target = data.draw(sg.elements(family, bound=2, allow_zero=False),
                           label="target")
        small = annihilator_basis(target, GradedWindow(F(2)))
        large = annihilator_basis(target, GradedWindow(F(3)))
        for d in small.basis:
            assert large.contains(d)


class TestCoordsAndSpan:
    def test_coords_follow_generator_order(self):
        window = GradedWindow(F(1))
        d = SuperDerivation(SW22, el(SW22, (KIND_L, -1, 3)), F(5))
        coords = derivation_coords(d, window)
        gens = window.generators(SW22)
        assert len(coords) == len(gens) + 1
        assert coords[gens.index(bv(SW22, KIND_L, -1))] == 3
        assert coords[-1] == 5

    def test_support_outside_window_has_no_coords(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 5, 1)))
        assert derivation_coords(d, GradedWindow(F(2))) is None
        assert not span_contains((SuperDerivation.zero(SVIR0),), d, GradedWindow(F(2)))

    def test_span_queries(self):
        window = GradedWindow(F(2))
        b1 = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        b2 = SuperDerivation.ad(el(SVIR0, (KIND_G, 0, 1)))
        inside = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 2), (KIND_G, 0, -3)))
        outside = SuperDerivation.ad(el(SVIR0, (KIND_L, 2, 1)))
        assert span_contains((b1, b2), inside, window)
        assert not span_contains((b1, b2), outside, window)
        assert span_contains((), SuperDerivation.zero(SVIR0), window)

    def test_basis_member_outside_the_window_is_an_error(self):
        window = GradedWindow(F(2))
        inside = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        outside = SuperDerivation.ad(el(SVIR0, (KIND_L, 5, 1)))
        with pytest.raises(ValueError):
            span_contains((inside, outside), inside, window)
        # A d outside the window is simply not in the span.
        assert not span_contains((inside, outside), outside, window)

    def test_span_includes_the_outer_direction(self):
        window = GradedWindow(F(1))
        outer = SuperDerivation(SW22, Element.zero(SW22), F(1))
        ad_i = SuperDerivation.ad(el(SW22, (KIND_I, 1, 1)))
        assert span_contains((outer, ad_i), SuperDerivation(SW22, el(SW22, (KIND_I, 1, 2)),
                                                             F(-3)), window)
        assert not span_contains((ad_i,), outer, window)

    def test_span_contains_annihilator_members(self):
        window = GradedWindow(F(4))
        space = annihilator_basis(el(SW22, (KIND_L, 1, 1), (KIND_I, 2, 1)), window)
        assert space.dimension >= 2
        first, second = space.basis[:2]
        ad_l0 = SuperDerivation.ad(el(SW22, (KIND_L, 0, 1)))
        assert not span_contains(space.basis, ad_l0, window)
        assert span_contains(space.basis, first, window)
        assert span_contains(space.basis, first + second, window)
        assert not span_contains(space.basis, first + ad_l0, window)
        outside = SuperDerivation.ad(el(SW22, (KIND_I, 5, 1)))
        assert not span_contains(space.basis, outside, window)

    def test_space_contains_wraps_span(self):
        space = annihilator_basis(el(SVIR0, (KIND_G, 2, 1)), GradedWindow(F(6)))
        assert space.contains(SuperDerivation.ad(el(SVIR0, (KIND_L, 4, -7))))
        assert not space.contains(SuperDerivation.ad(el(SVIR0, (KIND_L, 0, 1))))
