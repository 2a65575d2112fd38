"""Structure constants, canonical elements, and graded bracket laws."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder import (
    AlgebraFamily,
    BasisVector,
    Element,
    FamilyMismatchError,
    GradedWindow,
    IndexNotInSectorError,
    KindNotInFamilyError,
    antisymmetry_sweep,
    bracket,
    bracket_terms,
    jacobi_sweep,
    parity_decompose,
)
from superder.algebra import KIND_C, KIND_C1, KIND_C2, KIND_G, KIND_I, KIND_L, KIND_Q

import strategies as sg
from helpers import reference_bracket

F = Fraction
VIR = AlgebraFamily.VIR
SVIR0 = AlgebraFamily.SVIR0
SVIR12 = AlgebraFamily.SVIR12
SW22 = AlgebraFamily.SW22


def bv(family, kind, index=0):
    return BasisVector(family, kind, F(index))


def el(family, *terms):
    return Element(family, tuple((bv(family, k, i), F(c)) for k, i, c in terms))


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

    def test_parity_decompose(self):
        even, odd = parity_decompose(el(SVIR0, (KIND_L, 1, 1), (KIND_G, 2, 1)))
        assert even == el(SVIR0, (KIND_L, 1, 1))
        assert odd == el(SVIR0, (KIND_G, 2, 1))
        even, odd = parity_decompose(Element.zero(SW22))
        assert even.is_zero and odd.is_zero
        even, odd = parity_decompose(
            el(SW22, (KIND_I, 0, 3), (KIND_Q, 0, 2), (KIND_C2, 0, 1)))
        assert even == el(SW22, (KIND_I, 0, 3), (KIND_C2, 0, 1))
        assert odd == el(SW22, (KIND_Q, 0, 2))


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
        vecs = [bv(family, k, i) for k in family.kinds
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
                assert dict(bracket_terms(u, v)) == reference_bracket(u, v), (u, v)

    def test_grading_of_bracket_terms(self, family):
        vecs = [bv(family, k, i) for k in family.noncentral_kinds
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


def _double_bracket(monkeypatch, pairs):
    """Rebind bracket_terms in every superder module so that the given
    ordered basis pairs bracket to twice their true value."""
    original = bracket_terms

    def doubled(u, v):
        terms = original(u, v)
        return tuple((w, 2 * c) for w, c in terms) if (u, v) in pairs else terms

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "superder" \
                and getattr(module, "bracket_terms", None) is original:
            monkeypatch.setattr(module, "bracket_terms", doubled)


class TestSweepsDetectViolations:
    L1 = bv(SVIR0, KIND_L, 1)
    G0 = bv(SVIR0, KIND_G, 0)

    def test_one_sided_change_breaks_antisymmetry(self, monkeypatch):
        _double_bracket(monkeypatch, {(self.L1, self.G0)})
        assert antisymmetry_sweep(SVIR0, 2) == (2, 121)

    def test_two_sided_change_breaks_only_jacobi(self, monkeypatch):
        _double_bracket(monkeypatch, {(self.L1, self.G0), (self.G0, self.L1)})
        assert antisymmetry_sweep(SVIR0, 2) == (0, 121)
        violations, triples = jacobi_sweep(SVIR0, 2)
        assert triples == 1331
        assert violations == 72
