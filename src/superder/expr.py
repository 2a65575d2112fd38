"""Surface syntax for elements and derivations.

Element grammar (whitespace may separate tokens):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := [rational '*'] gen
    gen      := ('L'|'G'|'I'|'Q') '[' index ']' | 'C' | 'C1' | 'C2'
    rational := ['-'] digits ['/' digits]
    index    := ['-'] digits ['/2']
    digits   := ('0'..'9')+          (at most MAX_DIGITS in a row)

The bare string "0" denotes the zero element.  Printing produces the
canonical form: terms sorted by kind (L, G, I, Q, C, C1, C2) and then by
ascending index, unit coefficients suppressed, so parse(format(e)) == e and
format(parse(s)) == s for canonical s.

Derivations print as "ad(expr)", optionally followed by "+ q*D" for the
outer direction, or as a bare outer part "D" / "q*D"; "0" is the zero
derivation.  The outer coefficient q follows the same rational rule:

    outer    := [rational '*'] 'D'
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

from .algebra import (
    CENTRAL_KINDS,
    KIND_C,
    KIND_C1,
    KIND_C2,
    AlgebraFamily,
    BasisVector,
    Element,
    IndexNotInSectorError,
    KindNotInFamilyError,
    PositionedError,
)
from .derivations import SuperDerivation, has_outer


class ParseError(PositionedError):
    """A surface-syntax error, with the offending position."""


# ASCII only: ``str.isdigit`` also accepts other scripts and superscripts.
_DIGITS = frozenset("0123456789")

# Longest digit run the grammar accepts.  It keeps every number well inside
# the interpreter's limit on converting long digit strings to int, so an
# over-long number is a parse error with a position.
MAX_DIGITS = 1000


class _Scanner:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.src)

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        if ch:
            self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError("expected %r, found %r" % (ch, got or "end of input"),
                             self.pos)
        self.pos += 1

    def digits(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            if self.pos - start == MAX_DIGITS:
                raise ParseError("more than %d digits in a row" % MAX_DIGITS, self.pos)
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        return self.src[start:self.pos]


def _parse_signed_digits(s: _Scanner) -> Fraction:
    sign = 1
    if s.peek() == "-":
        s.take()
        sign = -1
    return Fraction(sign * int(s.digits()))


def _parse_index(s: _Scanner) -> Fraction:
    num = _parse_signed_digits(s)
    if s.peek() == "/":
        pos = s.pos
        s.take()
        den = s.digits()
        if den != "2":
            raise ParseError("index denominators other than 2 are not allowed", pos)
        return num / 2
    return num


def _parse_gen(s: _Scanner, family: AlgebraFamily) -> BasisVector:
    start = s.pos
    kind = s.peek()
    if kind not in ("C", "L", "G", "I", "Q"):
        raise ParseError("expected a generator", s.pos)
    s.take()
    nxt = s.src[s.pos] if s.pos < len(s.src) else ""
    if kind == KIND_C and nxt in ("1", "2"):
        s.pos += 1
        kind = KIND_C1 if nxt == "1" else KIND_C2
    if kind not in family.kinds:
        raise KindNotInFamilyError(
            "kind %r does not exist in family %r" % (kind, family.value), start)
    if kind in CENTRAL_KINDS:
        return BasisVector(family, kind)
    s.expect("[")
    idx_pos = s.pos
    index = _parse_index(s)
    s.expect("]")
    try:
        return BasisVector(family, kind, index)
    except IndexNotInSectorError as exc:
        raise IndexNotInSectorError(exc.args[0], idx_pos) from None


def _parse_rational(s: _Scanner) -> Fraction:
    """``rational := ['-'] digits ['/' digits]``, with a nonzero denominator."""
    value = _parse_signed_digits(s)
    if s.peek() == "/":
        s.take()
        den_pos = s.pos
        den = int(s.digits())
        if den == 0:
            raise ParseError("zero denominator", den_pos)
        value = value / den
    return value


def _parse_whole(src: str, rule) -> Fraction:
    """Parse the whole of ``src`` by one number rule of the grammar."""
    s = _Scanner(src)
    value = rule(s)
    if not s.at_end():
        raise ParseError("unexpected %r after the number" % s.peek(), s.pos)
    return value


def parse_rational(src: str) -> Fraction:
    """Parse the whole of ``src`` by the grammar's ``rational`` rule."""
    return _parse_whole(src, _parse_rational)


def parse_integer(src: str) -> int:
    """Parse the whole of ``src`` by the grammar's ``['-'] digits`` rule."""
    return int(_parse_whole(src, _parse_signed_digits))


def _parse_coefficient(s: _Scanner) -> Fraction:
    """An optional ``rational '*'`` prefix; 1 when absent."""
    ch = s.peek()
    if not (ch in _DIGITS or ch == "-"):
        return Fraction(1)
    coeff = _parse_rational(s)
    s.expect("*")
    return coeff


def _parse_expr(s: _Scanner, family: AlgebraFamily, closer: str = "") -> Element:
    """``'0'`` or ``expr``, up to the end of the input or the closer."""
    start = s.pos

    def done() -> bool:
        return s.at_end() or s.peek() == closer

    if done():
        raise ParseError("empty input", start)
    if s.peek() == "0":
        s.take()
        if done():
            return Element.zero(family)
        s.pos = start
    terms = []
    op = s.take() if s.peek() in ("+", "-") else "+"
    while True:
        c = _parse_coefficient(s)  # term := [rational '*'] gen
        terms.append((_parse_gen(s, family), c if op == "+" else -c))
        if done():
            return Element(family, terms)
        op = s.take()
        if op not in ("+", "-"):
            raise ParseError("expected '+' or '-', found %r" % op, s.pos - 1)


def parse_element(src: str, family: AlgebraFamily) -> Element:
    """Parse the element grammar into canonical form."""
    return _parse_expr(_Scanner(src), family)


def _signed_terms(terms: Iterable[Tuple[str, Fraction]]) -> str:
    """``c*token`` terms joined by their signs, unit coefficients suppressed;
    each size is written from the reduced ints, as ``str(Fraction)`` would."""
    parts = []
    for token, c in terms:
        n, d = c.numerator, c.denominator
        size = "%d/%d*" % (abs(n), d) if d != 1 else "" if n in (1, -1) else "%d*" % abs(n)
        sign = ("- " if n < 0 else "+ ") if parts else ("-" if n < 0 else "")
        parts.append(sign + size + token)
    return " ".join(parts) or "0"


def format_element(e: Element) -> str:
    """Canonical rendering of an element; inverse of parse_element."""
    return _signed_terms((bv.token(), c) for bv, c in e.terms.items())


def fraction_json(value: Fraction):
    """A rational as a JSON value: an int when integral, else its string."""
    return int(value) if value.denominator == 1 else str(value)


def format_derivation(d: SuperDerivation) -> str:
    """Render a superderivation as "ad(...)", "ad(...) +- q*D", "q*D" or "0"."""
    terms = [] if d.inner.is_zero else [("ad(%s)" % format_element(d.inner), 1)]
    if d.outer_lambda:
        terms.append(("D", d.outer_lambda))
    return _signed_terms(terms)


def _parse_outer_part(s: _Scanner, sign: int, family: AlgebraFamily) -> Fraction:
    """``[rational '*'] 'D'`` up to the end of the input, times ``sign``."""
    s.skip_ws()
    if not has_outer(family):
        raise KindNotInFamilyError(
            "the outer derivation direction exists only in family sw22", s.pos)
    coeff = _parse_coefficient(s)
    s.expect("D")
    if not s.at_end():
        raise ParseError("unexpected %r after the outer part" % s.peek(), s.pos)
    return sign * coeff


def parse_derivation(src: str, family: AlgebraFamily) -> SuperDerivation:
    """Parse "ad(expr)", "ad(expr) +- q*D", "q*D", "D" or "0"."""
    if src.strip() == "0":
        return SuperDerivation.zero(family)
    s = _Scanner(src)
    inner = Element.zero(family)
    sign = 1
    s.skip_ws()
    if src.startswith("ad(", s.pos):
        s.pos += 3
        inner = _parse_expr(s, family, ")")
        if s.at_end():
            raise ParseError("unclosed 'ad('", s.pos)
        s.take()
        if s.at_end():
            return SuperDerivation(family, inner)
        if s.peek() not in ("+", "-"):
            raise ParseError("expected '+' or '-' before the outer part", s.pos)
        sign = 1 if s.take() == "+" else -1
    elif s.peek() == "-":
        s.take()
        sign = -1
    return SuperDerivation(family, inner, _parse_outer_part(s, sign, family))
