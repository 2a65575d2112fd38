"""Annihilator spaces: evaluation matrices, kernels, and span queries."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder import (
    OUTER_TAG,
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
    parse_derivation,
    parse_element,
    span_contains,
)
from superder.algebra import KIND_C, KIND_C1, KIND_C2, KIND_G, KIND_I, KIND_L, KIND_Q
from superder.annihilator import _image_rows
from superder.cli import run_command
from superder.linalg import kernel_basis

from helpers import (
    F,
    SVIR0,
    SVIR12,
    SW22,
    VIR,
    assert_reduced_echelon,
    bv,
    dense_nullspace,
    dense_rank,
    el,
    labeled_dense,
    reference_bracket,
)
import strategies as sg


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


    @given(st.data())
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_matches_a_matrix_built_column_by_column(self, family, data):
        # Each generator column from reference_bracket, one target term at a
        # time; sw22's D column from D's definition (it fixes I, Q and C2).
        target = data.draw(sg.elements(family, allow_zero=False), label="target")
        bound = data.draw(st.sampled_from([F(0), F(1, 2), F(1), F(2), F(7, 2)]),
                          label="bound")
        window = GradedWindow(bound)
        columns = {}
        for g in window.generators(family):
            col = {}
            for v, c in target.terms.items():
                for w, k in reference_bracket(g, v).items():
                    col[w] = col.get(w, 0) + c * k
            columns[g] = col
        if family is SW22:
            columns[OUTER_TAG] = {v: c for v, c in target.terms.items()
                                  if v.kind in (KIND_I, KIND_Q, KIND_C2)}
        entries = {(w, tag): c for tag, col in columns.items()
                   for w, c in col.items() if c}
        kind_order = (KIND_L, KIND_G, KIND_I, KIND_Q, KIND_C, KIND_C1, KIND_C2)
        rows = sorted({w for w, _ in entries},
                      key=lambda w: (kind_order.index(w.kind), w.index))
        m = evaluation_matrix(target, window)
        assert m.col_labels == tuple(columns)
        assert m.row_labels == tuple(rows)
        assert m.entries == entries
        assert all(type(c) is Fraction for c in m.entries.values())


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

    def test_memo_is_bounded(self):
        target = el(SVIR0, (KIND_G, 1, 1))
        first = annihilator_basis(target, GradedWindow(F(1)))
        # More than 256 distinct targets, each solved once.
        for i in range(300):
            annihilator_basis(el(SVIR0, (KIND_L, i, 1)), GradedWindow(F(1)))
            assert annihilator_basis.cache_info().currsize <= 256
        again = annihilator_basis(target, GradedWindow(F(1)))
        assert again == first
        assert annihilator_basis(target, GradedWindow(F(1))) is again

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
    def test_solve_matches_the_kernel_of_the_evaluation_matrix(self, data):
        # The solve eliminates integer rows built from the table; the
        # exported matrix is their exact view.  Coefficient denominators 2,
        # 3 and 4 and half-integral bounds exercise the common denominator.
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        target = data.draw(sg.elements(family, bound=2, allow_zero=False,
                                       coefficients=sg.QUARTER_RATIONALS),
                           label="target")
        bound = data.draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(5, 2), F(3)]),
                          label="bound")
        window = GradedWindow(bound)
        got = [d.coords() for d in annihilator_basis(target, window).basis]
        want = list(kernel_basis(evaluation_matrix(target, window)))
        assert got == want
        assert [list(v) for v in got] == [list(v) for v in want]
        assert_reduced_echelon(got, window.directions(family))

    @given(data=st.data())
    def test_image_rows_hold_no_zero_entry(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        target = data.draw(sg.elements(family, bound=2, allow_zero=False,
                                       coefficients=sg.QUARTER_RATIONALS),
                           label="target")
        columns = data.draw(st.lists(sg.super_derivations(family, bound=2), max_size=4),
                            label="columns")
        rows, den = _image_rows([d.coords() for d in columns], target)
        assert all(row and all(row.values()) for row in rows.values())
        for j, d in enumerate(columns):
            image = {w: F(row[j], den) for w, row in rows.items() if j in row}
            assert image == d.apply(target).terms

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

    @given(data=st.data())
    def test_span_matches_the_dense_rank_of_the_coordinates(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        window = GradedWindow(F(2))
        basis = data.draw(st.lists(sg.super_derivations(family, bound=2), max_size=4),
                          label="basis")
        if data.draw(st.booleans(), label="combination"):
            coeffs = data.draw(st.lists(st.sampled_from(sg.RATIONALS), min_size=len(basis),
                                        max_size=len(basis)), label="coeffs")
            d = sum((c * b for c, b in zip(coeffs, basis)), SuperDerivation.zero(family))
        else:
            d = data.draw(sg.super_derivations(family, bound=3), label="d")
        rows = [derivation_coords(b, window) for b in basis]
        t = derivation_coords(d, window)
        expected = t is not None and dense_rank(rows + [t]) == dense_rank(rows)
        assert span_contains(basis, d, window) == expected

    def test_space_contains_wraps_span(self):
        space = annihilator_basis(el(SVIR0, (KIND_G, 2, 1)), GradedWindow(F(6)))
        assert space.contains(SuperDerivation.ad(el(SVIR0, (KIND_L, 4, -7))))
        assert not space.contains(SuperDerivation.ad(el(SVIR0, (KIND_L, 0, 1))))


def _window_space(family, target, bound):
    """The window solve's annihilator of ``target``, an element or its text."""
    if isinstance(target, str):
        target = parse_element(target, family)
    return annihilator_basis(target, GradedWindow(F(bound)))


def _derivations(family, *texts):
    return tuple(parse_derivation(t, family) for t in texts)


class TestWindowSolvesOfNamedTargets:
    """Annihilators of named targets, pinned at today's window solve.

    A homogeneous target with a finite J has the same basis at every bound
    from J on, and for J > 0 a smaller one at J - 1/2.  A target with no J
    gains dimension with every unit of bound.  In svir0, L[0] + b*G[0] is
    killed by ad(L[0]), and also by ad(L[b^2] - (b/2)*G[b^2]) when b^2 is an
    integer, so its J grows like b^2, past the default bound.
    """

    @pytest.mark.parametrize("family, target, j, expected", [
        (SVIR0, "G[3]", 6, ("ad(L[6])",)),
        (SVIR0, "L[-4]", 4, ("ad(L[-4])", "ad(G[-2])")),
        (SVIR0, "L[0]", 0, ("ad(L[0])", "ad(G[0])")),
        (SVIR12, "G[5/2]", 5, None),
        (VIR, "L[3]", 3, None),
        (SW22, "G[2]", 4, ("ad(L[4])", "ad(I[4])", "D")),
    ], ids=lambda value: getattr(value, "value", str(value)))
    def test_the_basis_settles_at_j(self, family, target, j, expected):
        basis = _window_space(family, target, j).basis
        if expected is not None:
            assert basis == _derivations(family, *expected)
        for step in (F(1, 2), 1, 2, 4):
            assert _window_space(family, target, j + step).basis == basis
        if j > 0:
            assert _window_space(family, target, j - F(1, 2)).dimension < len(basis)

    @pytest.mark.parametrize("family, target, dims", [
        (SVIR0, "C", (10, 14, 18, 22)),
        (SW22, "I[0]", (12, 16, 20, 24)),
        (SW22, "I[0] + Q[0]", (12, 16, 20, 24)),
    ], ids=lambda value: getattr(value, "value", str(value)))
    def test_targets_with_no_j_grow_with_the_bound(self, family, target, dims):
        assert tuple(_window_space(family, target, w).dimension for w in (2, 3, 4, 5)) == dims

    @pytest.mark.parametrize("b, member", [
        (F(1), "ad(L[1] - 1/2*G[1])"),
        (F(2), "ad(L[4] - G[4])"),
        (F(3), "ad(L[9] - 3/2*G[9])"),
        (F(-2), "ad(L[4] + G[4])"),
        (F(1, 2), None),
        (F(3, 2), None),
        (F(4, 3), None),
    ], ids=str)
    def test_l0_plus_b_g0(self, b, member):
        target = el(SVIR0, (KIND_L, 0, 1), (KIND_G, 0, b))
        expected = ("ad(L[0])",) + ((member,) if member else ())
        assert _window_space(SVIR0, target, max(b * b, 2) + 2).basis \
            == _derivations(SVIR0, *expected)

    def test_l0_plus_10_g0_at_j(self):
        assert _window_space(SVIR0, "L[0] + 10*G[0]", 100).basis \
            == _derivations(SVIR0, "ad(L[0])", "ad(L[100] - 5*G[100])")

    @pytest.mark.xfail(strict=True, reason="annihilate's default bound, 2 * largest "
                       "|index| + 2, is 2 here, far below J = 100")
    def test_the_default_bound_finds_the_member_at_j(self, capsys):
        assert run_command(["annihilate", "--algebra", "svir0", "L[0] + 10*G[0]"]) == 0
        assert capsys.readouterr().out == "dimension 2\nad(L[0])\nad(L[100] - 5*G[100])\n"
