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
query, so dishonest oracles fail with a concrete witness.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import KIND_L, AlgebraFamily, BasisVector, Element
from .annihilator import GradedWindow, annihilator_basis, image_matrix
from .derivations import (
    MapLike,
    RawLinearMap,
    SuperDerivation,
    _combination,
    outer_action,
)
from .expr import format_element, parse_element
from .linalg import kernel_basis


class OracleDefectError(RuntimeError):
    """An oracle response disagrees with its own reported delta values."""


class OracleAnswer(NamedTuple):
    local_map: MapLike
    delta_x: Element
    delta_y: Element


@dataclass(frozen=True)
class TwoLocalOracle:
    """A query interface for a 2-local map on one algebra family.

    ``query(x, y)`` returns an ``OracleAnswer``; the contract is that the
    returned map evaluates to delta_x at x and delta_y at y.  Violations are
    detected by the caller (see ``checked_query``) and reported, never
    silently repaired.
    """

    family: AlgebraFamily
    query: Callable[[Element, Element], OracleAnswer]


def checked_query(oracle: TwoLocalOracle, x: Element, y: Element) -> OracleAnswer:
    """Query the oracle and verify the response against its own deltas.

    The returned map is evaluated here, at x and at y, and each value must
    equal the reported delta exactly.  An honest oracle reports the values
    of its underlying derivation, so for it this check proves that the
    random mask added to the response kills both queried points.
    """
    answer = oracle.query(x, y)
    if answer.local_map.apply(x) != answer.delta_x:
        raise OracleDefectError(
            "oracle response disagrees with its delta at %s" % format_element(x))
    if answer.local_map.apply(y) != answer.delta_y:
        raise OracleDefectError(
            "oracle response disagrees with its delta at %s" % format_element(y))
    return answer


# -- test sets ----------------------------------------------------------------

_TEST_COEFFS = (Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2),
                Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


# Largest accepted random test count: ``globalize`` queries the oracle once
# per test element, so a larger count is refused before any is built.
MAX_RANDOM_TESTS = 10_000


@dataclass(frozen=True)
class TestSet:
    """The elements a certificate checks: a basis sweep plus random probes.

    ``random_count`` must lie between 0 and ``MAX_RANDOM_TESTS``.
    """

    # Not a test case, despite the name pytest would otherwise collect.
    __test__ = False

    basis_bound: GradedWindow
    random_count: int
    seed: int

    def __post_init__(self):
        if self.random_count < 0:
            raise ValueError("the random test count must be non-negative")
        if self.random_count > MAX_RANDOM_TESTS:
            raise ValueError("the random test count must be at most %d"
                             % MAX_RANDOM_TESTS)

    def elements(self, family: AlgebraFamily) -> Tuple[Element, ...]:
        pool = self.basis_bound.basis_vectors(family)
        out = [Element.basis(bv) for bv in pool]
        rng = random.Random(self.seed)
        for _ in range(self.random_count):
            k = rng.randint(1, min(4, len(pool)))
            chosen = rng.sample(pool, k)
            out.append(Element(family, ((bv, rng.choice(_TEST_COEFFS))
                                        for bv in chosen)))
        return tuple(out)


# -- certificates --------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    element: Element
    expected: Element
    got: Element
    passed: bool

    def to_dict(self) -> dict:
        # A passing check has got == expected, so one string serves both.
        expected = format_element(self.expected)
        return {
            "element": format_element(self.element),
            "expected": expected,
            "got": expected if self.passed else format_element(self.got),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Certificate:
    """Re-checkable evidence for a globalization run."""

    family: AlgebraFamily
    candidate: MapLike
    mu: Fraction
    checks: Tuple[CheckRecord, ...]
    verdict: str
    failure_witness: Optional[Element]

    def to_dict(self) -> dict:
        if isinstance(self.candidate, SuperDerivation):
            candidate = {
                "inner": format_element(self.candidate.inner),
                "lambda": str(self.candidate.outer_lambda),
            }
        else:
            candidate = {
                "inner": None,
                "lambda": None,
                "raw": {bv.token(): format_element(img)
                        for bv, img in self.candidate.table.items()},
            }
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
    """The scalar r with num == r * den, or None when no such scalar exists."""
    if num.support() != den.support():
        return None
    ratio: Optional[Fraction] = None
    for bv, c in den.terms.items():
        r = num.terms[bv] / c
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


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
    answer = checked_query(oracle, a1, a2)
    candidate: MapLike
    if isinstance(answer.local_map, SuperDerivation):
        candidate = SuperDerivation(family, answer.local_map.inner)
    else:
        candidate = answer.local_map

    mu = Fraction(0)
    checks: List[CheckRecord] = []

    def candidate_action(e: Element) -> Element:
        out = candidate.apply(e)
        if mu:
            out = out + mu * outer_action(e)
        return out

    if probe is not None:
        delta_probe = checked_query(oracle, a1, probe).delta_y
        residual = delta_probe - candidate.apply(probe)
        if not residual.is_zero:
            ratio = _scalar_ratio(residual, probe)
            if ratio is not None:
                mu = ratio
        got = candidate_action(probe)
        checks.append(CheckRecord(probe, delta_probe, got, got == delta_probe))

    for e in test_set.elements(family):
        expected = checked_query(oracle, a1, e).delta_y
        got = candidate_action(e)
        checks.append(CheckRecord(e, expected, got, got == expected))

    witness = next((rec.element for rec in checks if not rec.passed), None)
    verdict = "pass" if witness is None else "fail"
    if isinstance(candidate, SuperDerivation) and mu:
        candidate = SuperDerivation(family, candidate.inner, mu)
    return Certificate(family, candidate, mu, tuple(checks), verdict, witness)


# -- honest oracles ---------------------------------------------------------------

_MASK_COEFFS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3))


def _pair_mask_basis(x: Element, y: Element, window: GradedWindow,
                     family: AlgebraFamily) -> Tuple[SuperDerivation, ...]:
    """A basis of the window derivations that kill both x and y."""
    if window.bound == 0:
        return ()
    if x.is_zero and y.is_zero:
        return tuple(SuperDerivation.from_coords(family, {tag: 1})
                     for tag in window.directions(family))
    if x.is_zero:
        x, y = y, x
    base = annihilator_basis(x, window).basis
    if y.is_zero or not base:
        return base
    m = image_matrix({j: d.apply(y) for j, d in enumerate(base)})
    return tuple(_combination(family, ((c, base[j]) for j, c in vec.items()))
                 for vec in kernel_basis(m))


def _pair_seed(seed: int, family: AlgebraFamily, x: Element, y: Element) -> int:
    text = "%d|%s|%s|%s" % (seed, family.value, format_element(x), format_element(y))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_honest_oracle(d: SuperDerivation, mask_window: GradedWindow,
                       seed: int) -> TwoLocalOracle:
    """An oracle whose underlying assignment is d.apply.

    Each query returns d plus a seeded pseudo-random combination of the
    window derivations annihilating both arguments, so responses vary from
    pair to pair, while the reported deltas are the true values d.apply(x)
    and d.apply(y).  The masked map itself is evaluated only by
    ``checked_query``, which thereby checks the mask.  A mask window of
    bound 0 disables masking entirely.
    """
    family = d.family

    def query(x: Element, y: Element) -> OracleAnswer:
        local = d
        basis = _pair_mask_basis(x, y, mask_window, family)
        if basis:
            rng = random.Random(_pair_seed(seed, family, x, y))
            coeffs = [rng.choice(_MASK_COEFFS) for _ in basis]
            local = _combination(family, ((1, d), *zip(coeffs, basis)))
        return OracleAnswer(local, d.apply(x), d.apply(y))

    return TwoLocalOracle(family, query)


# -- adversarial oracles ------------------------------------------------------------

def _coefficient_square_oracle(family: AlgebraFamily) -> TwoLocalOracle:
    """Underlying assignment squares every coefficient, so it is not linear.

    Each response is a raw table that reproduces the squared image of y
    exactly (y takes priority on shared support), hence all Delta readings
    through (anchor, e) queries see the squared assignment, while no single
    linear candidate can match it on any test set containing an element with
    a coefficient other than 0 or 1, or any basis vector outside the anchor
    response's support.
    """

    def query(x: Element, y: Element) -> OracleAnswer:
        table: Dict[BasisVector, Element] = {}
        for bv, c in y.terms.items():
            table[bv] = Element.basis(bv, c)
        for bv, c in x.terms.items():
            table.setdefault(bv, Element.basis(bv, c))
        raw = RawLinearMap(family, table)
        return OracleAnswer(raw, raw.apply(x), raw.apply(y))

    return TwoLocalOracle(family, query)


def _shift_map_oracle(family: AlgebraFamily) -> TwoLocalOracle:
    """Underlying assignment sends L_m to L_{m+1} and kills everything else."""

    def image(bv: BasisVector) -> Element:
        if bv.kind == KIND_L:
            return Element.basis(BasisVector(family, KIND_L, bv.index + 1))
        return Element.zero(family)

    def query(x: Element, y: Element) -> OracleAnswer:
        table = {bv: image(bv) for bv in (*x.support(), *y.support())}
        raw = RawLinearMap(family, table)
        return OracleAnswer(raw, raw.apply(x), raw.apply(y))

    return TwoLocalOracle(family, query)


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
    try:
        factory = _ADVERSARIAL_ORACLES[kind]
    except KeyError:
        raise ValueError("unknown adversarial oracle kind %r (expected one of %s)"
                         % (kind, ", ".join(ADVERSARIAL_KINDS))) from None
    return factory(family)


# -- homogeneity --------------------------------------------------------------------

def homogeneity_check(oracle: TwoLocalOracle,
                      samples: Sequence[Tuple[Fraction, Element]]) -> List[bool]:
    """Check Delta(k * x) == k * Delta(x) for each (k, x) sample.

    Delta is read through (a1, e) queries, a1 the family's first anchor.
    Scalars must be nonzero.
    """
    a1 = anchor_pair(oracle.family)[0]

    def read(e: Element) -> Element:
        return checked_query(oracle, a1, e).delta_y

    results = []
    for k, x in samples:
        k = Fraction(k)
        if k == 0:
            raise ValueError("homogeneity scalars must be nonzero")
        results.append(read(k * x) == k * read(x))
    return results
