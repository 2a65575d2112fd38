"""Certified globalization of 2-local superderivations.

A 2-local superderivation is known only through an oracle: for every pair of
elements (x, y) the oracle produces some map together with its values at x
and y, and a genuine local derivation must agree with the underlying
assignment at both queried points.  The globalization algorithm
reconstructs, when possible, one single superderivation that matches the
oracle's assignment everywhere, and it always returns a certificate with
per-element evidence.

The algorithm queries a family-specific pair of anchor elements whose window
annihilators meet trivially (in sw22 only in the outer direction D), so the
response determines the inner part of the answer.  For the sw22 family one
extra even element recovers the outer coefficient through an exact residual
proportionality test.  Each test element is then checked against a fresh
query, so dishonest oracles fail with a concrete witness.  An honest oracle
combines its random mask in coordinates over its first argument's
``annihilator._mask_base``, which it keeps, with d there, for the next query.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import KIND_L, AlgebraFamily, BasisVector, Element, _Record, exact
from .annihilator import GradedWindow, _mask_base, _pair_mask
from .derivations import (
    MapLike,
    RawLinearMap,
    SuperDerivation,
    _combination,
    outer_action,
)
from .expr import format_element, parse_element


class OracleDefectError(RuntimeError):
    """An oracle response disagrees with its own reported delta values."""


class OracleAnswer(NamedTuple):
    local_map: MapLike
    delta_x: Element
    delta_y: Element


class TwoLocalOracle(_Record):
    """A query interface for a 2-local map on one algebra family.

    ``query(x, y)`` returns an ``OracleAnswer``; the contract is that the
    returned map evaluates to delta_x at x and delta_y at y.  Violations are
    detected by the caller (see ``checked_query``) and reported, never
    silently repaired.
    """

    __slots__ = ("family", "query")


def checked_query(oracle: TwoLocalOracle, x: Element, y: Element) -> OracleAnswer:
    """Query the oracle and verify the response against its own deltas.

    The returned map is evaluated here, at x and at y, and each value must
    equal the reported delta exactly.  An honest oracle reports the values
    of its underlying derivation, so for it this check proves that the
    random mask added to the response kills both queried points.
    """
    answer = oracle.query(x, y)
    for point, delta in ((x, answer.delta_x), (y, answer.delta_y)):
        if answer.local_map.apply(point) != delta:
            raise OracleDefectError(
                "oracle response disagrees with its delta at %s" % format_element(point))
    return answer


# -- test sets ----------------------------------------------------------------

_TEST_COEFFS = (Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2),
                Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


# Largest accepted random test count: ``globalize`` queries the oracle once
# per test element, so a larger count is refused before any is built.
MAX_RANDOM_TESTS = 10_000


class TestSet(_Record):
    """The elements a certificate checks: a basis sweep plus random probes.

    ``random_count`` must lie between 0 and ``MAX_RANDOM_TESTS``.
    """

    # Not a test case, despite the name pytest would otherwise collect.
    __test__ = False
    __slots__ = ("basis_bound", "random_count", "seed")

    def __init__(self, basis_bound: GradedWindow, random_count: int, seed: int):
        if random_count < 0:
            raise ValueError("the random test count must be non-negative")
        if random_count > MAX_RANDOM_TESTS:
            raise ValueError("the random test count must be at most %d" % MAX_RANDOM_TESTS)
        super().__init__(basis_bound, random_count, seed)

    def elements(self, family: AlgebraFamily) -> Tuple[Element, ...]:
        pool = self.basis_bound.basis_vectors(family)
        out = [Element.basis(bv) for bv in pool]
        rng = random.Random(self.seed)
        for _ in range(self.random_count):
            chosen = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            out.append(Element(family, ((bv, rng.choice(_TEST_COEFFS)) for bv in chosen)))
        return tuple(out)


# -- certificates --------------------------------------------------------------

class CheckRecord(_Record):
    __slots__ = ("element", "expected", "got", "passed")

    def to_dict(self) -> dict:
        # A passing check has got == expected, so one string serves both.
        expected = format_element(self.expected)
        return {
            "element": format_element(self.element),
            "expected": expected,
            "got": expected if self.passed else format_element(self.got),
            "pass": self.passed,
        }


class Certificate(_Record):
    """Re-checkable evidence for a globalization run."""

    __slots__ = ("family", "candidate", "mu", "checks", "verdict", "failure_witness")

    def to_dict(self) -> dict:
        if isinstance(self.candidate, SuperDerivation):
            candidate = {"inner": format_element(self.candidate.inner),
                         "lambda": str(self.candidate.outer_lambda)}
        else:
            candidate = {"inner": None, "lambda": None,
                         "raw": {bv.token(): format_element(img)
                                 for bv, img in self.candidate.table.items()}}
        return {
            "family": self.family.value,
            "candidate": candidate,
            "mu": str(self.mu),
            "checks": [rec.to_dict() for rec in self.checks],
            "verdict": self.verdict,
            "failure_witness": (None if self.failure_witness is None
                                else format_element(self.failure_witness)),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# -- anchors -------------------------------------------------------------------

# Per family: two anchors whose window annihilators meet trivially (in sw22
# only in the outer direction D), and the even probe that exposes the outer
# coefficient where D exists.
_ANCHORS = {
    AlgebraFamily.VIR: ("L[1]", "L[2]", None),
    AlgebraFamily.SVIR0: ("G[0]", "G[1]", None),
    AlgebraFamily.SVIR12: ("G[1/2]", "G[3/2]", None),
    AlgebraFamily.SW22: ("G[0]", "G[1]", "I[0] + Q[0]"),
}


@lru_cache(maxsize=None)
def anchor_pair(family: AlgebraFamily) -> Tuple[Element, Element, Optional[Element]]:
    """The family's anchors (a1, a2, probe), parsed from ``_ANCHORS``."""
    return tuple(None if src is None else parse_element(src, family)
                 for src in _ANCHORS[family])


# -- globalization ---------------------------------------------------------------

def _scalar_ratio(num: Element, den: Element) -> Optional[Fraction]:
    """The scalar r with num == r * den, or None when no such scalar exists.

    ``den`` must be nonzero.  The ratio is read at den's first term and
    then checked on the whole element.
    """
    bv, c = next(iter(den.terms.items()))
    ratio = num.terms.get(bv, 0) / c
    return ratio if num == den * ratio else None


def globalize(oracle: TwoLocalOracle, test_set: TestSet) -> Certificate:
    """Reconstruct a single superderivation matching the oracle, with evidence.

    The candidate is the inner part of the anchor-pair response; for sw22 the
    outer coefficient mu is recovered from the residual at the even probe
    element, which must be an exact scalar multiple of the probe.  Every test
    element is then compared against a fresh oracle query.  The verdict is
    "pass" exactly when every recorded check passes; otherwise the first
    failing element is reported as the witness.
    """
    family = oracle.family
    a1, a2, probe = anchor_pair(family)
    candidate: MapLike = checked_query(oracle, a1, a2).local_map
    if isinstance(candidate, SuperDerivation):
        candidate = SuperDerivation(family, candidate.inner)

    mu = Fraction(0)
    checks: List[CheckRecord] = []

    def check(e: Element, expected: Element) -> None:
        got = candidate.apply(e)
        if mu and not isinstance(candidate, SuperDerivation):
            got = got + mu * outer_action(e)
        checks.append(CheckRecord(e, expected, got, got == expected))

    if probe is not None:
        delta_probe = checked_query(oracle, a1, probe).delta_y
        mu = _scalar_ratio(delta_probe - candidate.apply(probe), probe) or mu
        if mu and isinstance(candidate, SuperDerivation):
            candidate = SuperDerivation(family, candidate.inner, mu)
        check(probe, delta_probe)

    for e in test_set.elements(family):
        check(e, checked_query(oracle, a1, e).delta_y)

    witness = next((rec.element for rec in checks if not rec.passed), None)
    verdict = "pass" if witness is None else "fail"
    return Certificate(family, candidate, mu, tuple(checks), verdict, witness)


# -- honest oracles ---------------------------------------------------------------

_MASK_COEFFS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3))


def make_honest_oracle(d: SuperDerivation, mask_window: GradedWindow,
                       seed: int) -> TwoLocalOracle:
    """An oracle whose underlying assignment is d.apply.

    Each query returns d plus a seeded pseudo-random combination of the
    window derivations annihilating both arguments, so responses vary from
    pair to pair, while the reported deltas are the true values d.apply(x)
    and d.apply(y).  The mask draws one coefficient per kernel vector of
    ``_pair_mask``, seeded by the sha256 of "seed|family|x|y", and d plus the
    mask is one ``_combination``.  The masked map is evaluated only by
    ``checked_query``, which thereby checks the mask.  A mask window of bound
    0 disables masking.  ``globalize`` puts its anchor a1 first in every
    query, so the oracle keeps d(x), the x part of the seed text and x's
    ``_mask_base`` for the last first argument x, matched by identity.
    """
    import hashlib  # here, not at module level: only honest oracles hash

    family = d.family
    kept = [None]

    def query(x: Element, y: Element) -> OracleAnswer:
        if x is not kept[0]:
            kept[:] = (x, d.apply(x), "%d|%s|%s|" % (seed, family.value, format_element(x)),
                       mask_window.bound and _mask_base(x, mask_window))
        _, delta_x, prefix, x_base = kept
        local = d
        base, vectors = _pair_mask(x_base, y) if x_base else ((), ())
        if vectors:
            digest = hashlib.sha256((prefix + format_element(y)).encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            draws = [(c, vec) for vec in vectors if (c := rng.choice(_MASK_COEFFS))]
            local = _combination(family, ((1, d), *((c * v, base[j]) for c, vec in draws
                                                    for j, v in vec.items())))
        return OracleAnswer(local, delta_x, d.apply(y))

    return TwoLocalOracle(family, query)


# -- adversarial oracles ------------------------------------------------------------

def _table_oracle(family: AlgebraFamily,
                  image: Callable[[BasisVector, Fraction], Element]) -> TwoLocalOracle:
    """Each response is the raw table sending every basis vector bv of x's
    and y's support to ``image(bv, c)``, c its coefficient there (y's wins
    on shared support), with that table's own values at x and y."""

    def query(x: Element, y: Element) -> OracleAnswer:
        raw = RawLinearMap(family, {bv: image(bv, c) for e in (x, y)
                                    for bv, c in e.terms.items()})
        return OracleAnswer(raw, raw.apply(x), raw.apply(y))

    return TwoLocalOracle(family, query)


def _coefficient_square_oracle(family: AlgebraFamily) -> TwoLocalOracle:
    """Underlying assignment squares every coefficient, so it is not linear.

    Each response reproduces the squared image of y exactly, hence all
    Delta readings through (anchor, e) queries see the squared assignment,
    while no single linear candidate can match it on any test set containing
    an element with a coefficient other than 0 or 1, or any basis vector
    outside the anchor response's support.
    """
    return _table_oracle(family, Element.basis)


def _shift_map_oracle(family: AlgebraFamily) -> TwoLocalOracle:
    """Underlying assignment sends L_m to L_{m+1} and kills everything else."""
    return _table_oracle(family, lambda bv, c: Element.basis(BasisVector(
        family, KIND_L, bv.index + 1)) if bv.kind == KIND_L else Element.zero(family))


def _pairwise_inconsistent_oracle(family: AlgebraFamily) -> TwoLocalOracle:
    """Each response is a genuine inner derivation, but the choice depends on
    the pair: ad(L_0) when the second anchor a2 is an argument, ad(2*L_0)
    otherwise.  No single derivation matches both behaviours."""
    special = anchor_pair(family)[1]
    ad_l0 = SuperDerivation.ad(Element.basis(BasisVector(family, KIND_L, Fraction(0))))
    ad_2l0 = 2 * ad_l0

    def query(x: Element, y: Element) -> OracleAnswer:
        local = ad_l0 if (x == special or y == special) else ad_2l0
        return OracleAnswer(local, local.apply(x), local.apply(y))

    return TwoLocalOracle(family, query)


_ADVERSARIAL_ORACLES = {
    "coefficient_square": _coefficient_square_oracle,
    "shift_map": _shift_map_oracle,
    "pairwise_inconsistent": _pairwise_inconsistent_oracle,
}

ADVERSARIAL_KINDS = tuple(_ADVERSARIAL_ORACLES)


def make_adversarial_oracle(kind: str, family: AlgebraFamily) -> TwoLocalOracle:
    """A dishonest oracle of the named kind.

    Every response is self-consistent (its deltas match the returned map),
    so the dishonesty surfaces as a failed certificate with a witness rather
    than as an OracleDefectError.
    """
    if kind not in _ADVERSARIAL_ORACLES:
        raise ValueError("unknown adversarial oracle kind %r (expected one of %s)"
                         % (kind, ", ".join(ADVERSARIAL_KINDS)))
    return _ADVERSARIAL_ORACLES[kind](family)


# -- homogeneity --------------------------------------------------------------------

def homogeneity_check(oracle: TwoLocalOracle,
                      samples: Sequence[Tuple[Fraction, Element]]) -> List[bool]:
    """Check Delta(k * x) == k * Delta(x) for each (k, x) sample.

    Delta is read through (a1, e) queries, a1 the family's first anchor.
    Scalars must be nonzero.
    """
    a1 = anchor_pair(oracle.family)[0]
    results = []
    for k, x in samples:
        k = exact(k)
        if k == 0:
            raise ValueError("homogeneity scalars must be nonzero")
        results.append(checked_query(oracle, a1, k * x).delta_y
                       == k * checked_query(oracle, a1, x).delta_y)
    return results
