"""Surface syntax: parsing, canonical printing, and round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder import (
    AlgebraFamily,
    BasisVector,
    Element,
    IndexNotInSectorError,
    KindNotInFamilyError,
    ParseError,
    SuperDerivation,
    format_derivation,
    format_element,
    parse_derivation,
    parse_element,
)
from superder.algebra import KIND_C, KIND_C1, KIND_G, KIND_I, KIND_L
from superder.expr import parse_integer

import strategies as sg

F = Fraction
VIR = AlgebraFamily.VIR
SVIR0 = AlgebraFamily.SVIR0
SVIR12 = AlgebraFamily.SVIR12
SW22 = AlgebraFamily.SW22


def bv(family, kind, index=0):
    return BasisVector(family, kind, F(index))


def el(family, *terms):
    return Element(family, tuple((bv(family, k, i), F(c)) for k, i, c in terms))


class TestParseElement:
    def test_multi_term(self):
        got = parse_element("3*L[2] + 1/2*G[-1] - C1", SW22)
        assert got == el(SW22, (KIND_L, 2, 3), (KIND_G, -1, F(1, 2)),
                         (KIND_C1, 0, -1))

    def test_half_odd_index(self):
        assert parse_element("G[3/2]", SVIR12) \
            == el(SVIR12, (KIND_G, F(3, 2), 1))
        assert parse_element("G[-1/2]", SVIR12) \
            == el(SVIR12, (KIND_G, F(-1, 2), 1))

    def test_cancellation_to_zero(self):
        assert parse_element("L[1] - L[1]", VIR).is_zero

    def test_zero_literal(self):
        assert parse_element("0", SVIR0).is_zero
        assert parse_element("  0  ", SVIR0).is_zero

    def test_leading_sign(self):
        assert parse_element("-L[1]", VIR) == el(VIR, (KIND_L, 1, -1))
        assert parse_element("+L[1]", VIR) == el(VIR, (KIND_L, 1, 1))

    def test_whitespace_tolerated(self):
        assert parse_element(" 3 * L[ -2 ] + G[0] ", SVIR0) \
            == el(SVIR0, (KIND_L, -2, 3), (KIND_G, 0, 1))

    def test_kind_outside_family(self):
        with pytest.raises(KindNotInFamilyError) as exc:
            parse_element("Q[0]", SVIR0)
        assert exc.value.position == 0
        with pytest.raises(KindNotInFamilyError) as exc:
            parse_element("L[0] + Q[2]", SVIR0)
        assert exc.value.position == 7
        with pytest.raises(KindNotInFamilyError):
            parse_element("G[0]", VIR)
        with pytest.raises(KindNotInFamilyError):
            parse_element("C2", SVIR0)

    def test_index_outside_sector(self):
        with pytest.raises(IndexNotInSectorError):
            parse_element("G[1/2]", SVIR0)
        with pytest.raises(IndexNotInSectorError):
            parse_element("G[1]", SVIR12)
        with pytest.raises(IndexNotInSectorError):
            parse_element("L[1/2]", VIR)

    @pytest.mark.parametrize("src, position", [
        ("L[2", 3),
        ("L[1/3]", 3),
        ("", 0),
        ("   ", 0),
    ])
    def test_parse_error_positions(self, src, position):
        with pytest.raises(ParseError) as exc:
            parse_element(src, VIR)
        assert exc.value.position == position
        assert "(at position %d)" % position in str(exc.value)

    @pytest.mark.parametrize("src, position", [
        ("L[\u0663]", 2),         # Arabic-Indic digit three
        ("\u00b2*L[1]", 0),       # superscript two
        ("L[1_0]", 3),
        ("\uff13*L[1]", 0),       # fullwidth digit three
        ("1/\u0663*L[0]", 2),
    ])
    def test_digits_are_ascii_only(self, src, position):
        with pytest.raises(ParseError) as exc:
            parse_element(src, VIR)
        assert exc.value.position == position

    @pytest.mark.parametrize("src, value", [("0", 0), ("-12", -12), (" 7 ", 7)])
    def test_integer_rule(self, src, value):
        assert parse_integer(src) == value

    @pytest.mark.parametrize("src, position", [
        ("1_0", 1), ("\u0663", 0), ("1.0", 1), ("1/2", 1), ("", 0), ("-", 1),
    ])
    def test_integer_rule_rejects(self, src, position):
        with pytest.raises(ParseError) as exc:
            parse_integer(src)
        assert exc.value.position == position

    @pytest.mark.parametrize("src", [
        "2L[0]",          # missing '*'
        "L[0] & G[0]",    # bad separator
        "1/0*L[0]",       # zero denominator
        "L[0] +",         # dangling operator
        "*L[0]",          # coefficient missing
    ])
    def test_malformed_inputs(self, src):
        with pytest.raises(ParseError):
            parse_element(src, SVIR0)


class TestFormatElement:
    def test_canonical_rendering(self):
        assert format_element(el(VIR, (KIND_L, 0, 2), (KIND_C, 0, F(1, 4)))) \
            == "2*L[0] + 1/4*C"
        assert format_element(el(SVIR0, (KIND_L, 1, -1), (KIND_G, 0, -2))) \
            == "-L[1] - 2*G[0]"
        assert format_element(el(SVIR0, (KIND_G, -1, 1))) == "G[-1]"
        assert format_element(el(SVIR12, (KIND_G, F(-3, 2), 1))) == "G[-3/2]"
        assert format_element(Element.zero(SW22)) == "0"

    def test_terms_print_in_canonical_order(self):
        e = el(SW22, (KIND_I, -2, 1), (KIND_L, 5, 1), (KIND_G, 0, 1))
        assert format_element(e) == "L[5] + G[0] + I[-2]"

    @given(data=st.data())
    def test_round_trip(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        e = data.draw(sg.elements(family), label="e")
        text = format_element(e)
        assert parse_element(text, family) == e
        assert format_element(parse_element(text, family)) == text


class TestParseDerivation:
    def test_inner_only(self):
        assert parse_derivation("ad(L[2])", SW22) \
            == SuperDerivation.ad(el(SW22, (KIND_L, 2, 1)))

    def test_inner_plus_outer(self):
        assert parse_derivation("ad(I[2]) + 3*D", SW22) \
            == SuperDerivation(SW22, el(SW22, (KIND_I, 2, 1)), F(3))
        assert parse_derivation("ad(L[1]) - 1/2*D", SW22) \
            == SuperDerivation(SW22, el(SW22, (KIND_L, 1, 1)), F(-1, 2))
        assert parse_derivation("ad(L[1]) + D", SW22).outer_lambda == 1
        assert parse_derivation("ad(L[1]) + 3*D", SW22) \
            == SuperDerivation(SW22, el(SW22, (KIND_L, 1, 1)), F(3))

    @pytest.mark.parametrize("src, lam", [
        ("D", 1), ("-D", -1), ("3*D", 3), ("-5/2*D", F(-5, 2)),
        ("-3/2*D", F(-3, 2)),
    ])
    def test_bare_outer(self, src, lam):
        assert parse_derivation(src, SW22) \
            == SuperDerivation(SW22, Element.zero(SW22), F(lam))

    def test_zero_literal(self):
        assert parse_derivation("0", VIR).is_zero

    def test_central_inner_collapses_to_zero(self):
        assert parse_derivation("ad(C)", VIR).is_zero

    def test_outer_part_outside_sw22(self):
        with pytest.raises(KindNotInFamilyError):
            parse_derivation("D", SVIR0)
        with pytest.raises(KindNotInFamilyError):
            parse_derivation("ad(L[0]) + 2*D", SVIR12)

    @pytest.mark.parametrize("src", [
        "ad(L[1]",            # unclosed
        "ad(L[1]) * D",       # bad separator before outer part
        "ad(L[1]) + x*D",     # malformed outer coefficient
        "ad(L[1]) + 2*E",     # not an outer term
        "Dx",
    ])
    def test_malformed_derivations(self, src):
        with pytest.raises(ParseError):
            parse_derivation(src, SW22)

    @pytest.mark.parametrize("src, position", [
        ("ad(L[1]) + 1.5*D", 12),     # decimal point
        ("ad(L[1]) + 1e2*D", 12),     # exponent
        ("ad(L[1]) + 3/0*D", 13),     # zero denominator
        ("1.5*D", 1),
        ("1e2*D", 1),
        ("3/0*D", 2),
    ])
    def test_outer_coefficient_follows_rational_grammar(self, src, position):
        with pytest.raises(ParseError) as exc:
            parse_derivation(src, SW22)
        assert exc.value.position == position


    @pytest.mark.parametrize("src, position", [
        ("ad(L[1/3])", 6),            # bad index denominator inside ad(...)
        ("ad(X[1])", 3),              # unknown generator inside ad(...)
        ("  ad(L[1]) + 1.5*D", 14),   # leading whitespace is not stripped away
    ])
    def test_positions_index_the_whole_input(self, src, position):
        with pytest.raises(ParseError) as exc:
            parse_derivation(src, SW22)
        assert exc.value.position == position
        assert "(at position %d)" % position in str(exc.value)

    def test_kind_position_inside_ad(self):
        with pytest.raises(KindNotInFamilyError) as exc:
            parse_derivation("ad(L[0] + Q[2])", SVIR0)
        assert exc.value.position == 10


class TestFormatDerivation:
    def test_examples(self):
        assert format_derivation(SuperDerivation.ad(
            el(SW22, (KIND_G, 0, 1), (KIND_L, 2, 1)))) == "ad(L[2] + G[0])"
        assert format_derivation(SuperDerivation(
            SW22, el(SW22, (KIND_I, 2, 1)), F(3))) == "ad(I[2]) + 3*D"
        assert format_derivation(SuperDerivation(
            SW22, el(SW22, (KIND_L, 1, 1)), F(-1))) == "ad(L[1]) - D"
        assert format_derivation(SuperDerivation(
            SW22, Element.zero(SW22), F(-1))) == "-D"
        assert format_derivation(SuperDerivation(
            SW22, Element.zero(SW22), F(5, 2))) == "5/2*D"
        assert format_derivation(SuperDerivation.zero(SVIR0)) == "0"

    @given(data=st.data())
    def test_round_trip(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        d = data.draw(sg.super_derivations(family), label="d")
        text = format_derivation(d)
        assert parse_derivation(text, family) == d
