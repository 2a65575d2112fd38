"""Globalization of 2-local superderivations: oracles and certificates."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superder import (
    ADVERSARIAL_KINDS,
    Element,
    GradedWindow,
    OracleAnswer,
    OracleDefectError,
    RawLinearMap,
    SuperDerivation,
    TestSet,
    TwoLocalOracle,
    anchor_pair,
    annihilator_basis,
    checked_query,
    globalize,
    homogeneity_check,
    make_adversarial_oracle,
    make_honest_oracle,
    outer_action,
    parse_element,
)
from superder.algebra import KIND_C, KIND_C2, KIND_G, KIND_I, KIND_L, KIND_Q
from superder import two_local
from superder.annihilator import _image_rows
from superder.two_local import MAX_RANDOM_TESTS, _MASK_COEFFS, _scalar_ratio

from helpers import (
    F,
    SVIR0,
    SVIR12,
    SW22,
    VIR,
    bv,
    el,
    pair_mask_basis,
    reference_combination,
    reference_mask_basis,
    reference_pair_mask_basis,
    reference_pair_seed,
)
import strategies as sg


def small_test_set(seed=0):
    return TestSet(GradedWindow(F(2)), 5, seed)


def sample_derivation(family):
    d = SuperDerivation.ad(el(family, (KIND_L, -1, 2), (KIND_L, 2, F(1, 2))))
    if sg.row(family).outer:
        # The last tower (Q in sw22) at its least positive index, and -1/2 D.
        kind = sg.row(family).towers[-1]
        index = max(sg.index_values(family, kind, 1))
        d = d + SuperDerivation(family, el(family, (kind, index, 3)), F(-1, 2))
    return d


class TestAnchors:
    def test_anchor_pairs(self):
        assert anchor_pair(VIR) == (el(VIR, (KIND_L, 1, 1)),
                                    el(VIR, (KIND_L, 2, 1)), None)
        assert anchor_pair(SVIR0) == (el(SVIR0, (KIND_G, 0, 1)),
                                      el(SVIR0, (KIND_G, 1, 1)), None)
        assert anchor_pair(SVIR12) == (el(SVIR12, (KIND_G, F(1, 2), 1)),
                                       el(SVIR12, (KIND_G, F(3, 2), 1)), None)
        a1, a2, probe = anchor_pair(SW22)
        assert (a1, a2) == (el(SW22, (KIND_G, 0, 1)), el(SW22, (KIND_G, 1, 1)))
        assert probe == el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))

    @pytest.mark.parametrize("bound", [2, 3, 5, 6])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_anchor_annihilators_meet_trivially(self, family, bound):
        """ann(a1) and ann(a2) meet in 0, or only in D for sw22, and the
        probe's common annihilator with a1 holds no outer part, so the
        responses pin down the inner part and mu."""
        window = GradedWindow(F(bound))
        a1, a2, probe = anchor_pair(family)
        expected = ((SuperDerivation(family, Element.zero(family), F(1)),)
                    if sg.row(family).outer else ())
        assert pair_mask_basis(a1, a2, window, family) == expected
        if probe is not None:
            for d in pair_mask_basis(a1, probe, window, family):
                assert d.outer_lambda == 0


class TestCheckedQuery:
    def test_honest_answer_passes(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=1)
        x = el(SVIR0, (KIND_G, 0, 1))
        y = el(SVIR0, (KIND_L, -2, 1))
        ans = checked_query(oracle, x, y)
        assert ans.delta_x == ans.local_map.apply(x)
        assert ans.delta_y == ans.local_map.apply(y)

    def test_lying_oracle_raises(self):
        zero = SuperDerivation.zero(SVIR0)

        def query(x, y):
            return OracleAnswer(zero, x, Element.zero(SVIR0))

        oracle = TwoLocalOracle(SVIR0, query)
        with pytest.raises(OracleDefectError):
            checked_query(oracle, el(SVIR0, (KIND_L, 0, 1)), Element.zero(SVIR0))

    def test_globalize_propagates_defects(self):
        zero = SuperDerivation.zero(SVIR0)

        def query(x, y):
            return OracleAnswer(zero, Element.zero(SVIR0), y)

        oracle = TwoLocalOracle(SVIR0, query)
        with pytest.raises(OracleDefectError):
            globalize(oracle, small_test_set())


class TestHonestOracle:
    def test_mask_bound_zero_returns_the_derivation_itself(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1), (KIND_G, -1, 2)))
        oracle = make_honest_oracle(d, GradedWindow(F(0)), seed=5)
        for x, y in [(el(SVIR0, (KIND_G, 0, 1)), el(SVIR0, (KIND_G, 1, 1))),
                     (el(SVIR0, (KIND_L, 2, 1)), el(SVIR0, (KIND_C, 0, 1)))]:
            assert oracle.query(x, y).local_map == d

    def test_masking_varies_but_keeps_deltas_honest(self):
        zero = SuperDerivation.zero(SVIR0)
        x = el(SVIR0, (KIND_G, 2, 1))
        y = el(SVIR0, (KIND_C, 0, 1))
        saw_nonzero_mask = False
        for seed in range(21):
            ans = make_honest_oracle(zero, GradedWindow(F(4)), seed).query(x, y)
            assert ans.delta_x.is_zero and ans.delta_y.is_zero
            assert ans.local_map.apply(x).is_zero
            assert ans.local_map.apply(y).is_zero
            if not ans.local_map.is_zero:
                saw_nonzero_mask = True
        assert saw_nonzero_mask

    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_zero_pair_mask_basis_is_every_window_direction(self, family):
        window = GradedWindow(F(2))
        zero = Element.zero(family)
        expected = [SuperDerivation.ad(Element.basis(g)) for g in window.generators(family)]
        if sg.row(family).outer:
            expected.append(SuperDerivation(family, zero, F(1)))
        assert pair_mask_basis(zero, zero, window, family) == tuple(expected)

    @given(st.data())
    def test_pair_mask_basis_matches_the_image_matrix_route(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        x, y = (data.draw(sg.elements(family, bound=2, allow_zero=False,
                                      coefficients=sg.QUARTER_RATIONALS), label=name)
                for name in ("x", "y"))
        window = GradedWindow(data.draw(st.sampled_from([F(1), F(3, 2), F(2), F(3)]),
                                        label="bound"))
        assert pair_mask_basis(x, y, window, family) == reference_pair_mask_basis(x, y, window)

    def test_pair_mask_basis_drops_an_entry_that_cancels(self):
        # ad(L[0]) + D is in the annihilator of G[0] + Q[1], and at Q[1] its
        # two parts cancel: [L[0], Q[1]] = -Q[1] while D fixes Q[1].
        x, y = el(SW22, (KIND_G, 0, 1), (KIND_Q, 1, 1)), el(SW22, (KIND_Q, 1, 1))
        window = GradedWindow(F(2))
        d = SuperDerivation(SW22, el(SW22, (KIND_L, 0, 1)), F(1))
        assert annihilator_basis(x, window).contains(d)
        assert not SuperDerivation.ad(d.inner).apply(y).is_zero
        assert d.apply(y).is_zero
        base = annihilator_basis(x, window).basis
        rows, _ = _image_rows([b.coords() for b in base], y)
        assert all(row and all(row.values()) for row in rows.values())
        got = pair_mask_basis(x, y, window, SW22)
        assert got == reference_pair_mask_basis(x, y, window)
        assert d in got

    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_a_mask_that_does_not_kill_the_anchors_is_a_defect(self, family, monkeypatch):
        """The oracle reports d's values and checked_query evaluates the
        masked map, so a mask outside the pair's annihilator is caught."""
        wrong = SuperDerivation.ad(el(family, (KIND_L, 1, 1)))
        a1, a2, _ = anchor_pair(family)
        assert not (wrong.apply(a1).is_zero and wrong.apply(a2).is_zero)
        monkeypatch.setattr(two_local, "_pair_mask", lambda *args: ((wrong,), ({0: 1},)))
        monkeypatch.setattr(two_local, "_MASK_COEFFS", (F(1),))
        d = SuperDerivation.ad(el(family, (KIND_L, -2, 3)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=0)
        with pytest.raises(OracleDefectError):
            globalize(oracle, small_test_set())

    @staticmethod
    def expected_response(d, x, y, window, seed):
        """d plus one seeded draw from ``_MASK_COEFFS`` per member of the mask
        basis, summed member by member."""
        family = d.family
        basis = reference_mask_basis(x, y, window, family)
        if not basis:
            return d
        rng = random.Random(reference_pair_seed(seed, family, x, y))
        coeffs = [rng.choice(_MASK_COEFFS) for _ in basis]
        return reference_combination(family, ((1, d), *zip(coeffs, basis)))

    def assert_response_is_the_basis_combination(self, d, x, y, window, seed):
        expected = self.expected_response(d, x, y, window, seed)
        assert make_honest_oracle(d, window, seed).query(x, y).local_map == expected

    @given(st.data())
    def test_response_is_the_combination_over_the_mask_basis(self, data):
        family = data.draw(st.sampled_from(sg.ALL_FAMILIES), label="family")
        d = data.draw(sg.super_derivations(family), label="d")
        x, y = (data.draw(sg.elements(family, bound=2, coefficients=sg.QUARTER_RATIONALS),
                          label=name) for name in ("x", "y"))
        window = GradedWindow(data.draw(st.sampled_from([F(0), F(1), F(3, 2), F(2), F(3)]),
                                        label="bound"))
        seed = data.draw(st.integers(0, 99), label="seed")
        self.assert_response_is_the_basis_combination(d, x, y, window, seed)

    @pytest.mark.parametrize("bound", [0, 2])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_response_with_zero_arguments_or_no_mask(self, family, bound):
        d = sample_derivation(family)
        a1, a2, _ = anchor_pair(family)
        zero = Element.zero(family)
        window = GradedWindow(F(bound))
        for x, y in [(zero, zero), (a1, zero), (zero, a2), (a1, a2)]:
            for seed in range(3):
                self.assert_response_is_the_basis_combination(d, x, y, window, seed)

    @pytest.mark.parametrize("bound", [0, 2, 4])
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    def test_one_oracle_answers_each_query_for_its_own_first_argument(self, family, bound):
        """The oracle keeps what depends on its latest first argument alone;
        a query led by another argument, zero included, must not reuse it."""
        d = sample_derivation(family)
        a1, a2, _ = anchor_pair(family)
        e1, e2 = TestSet(GradedWindow(F(2)), 2, 5).elements(family)[-2:]
        zero = Element.zero(family)
        window = GradedWindow(F(bound))
        oracle = make_honest_oracle(d, window, seed=11)
        for x, y in [(a1, e1), (a2, e1), (zero, e2), (a1, e2), (a1, zero), (a2, a1)]:
            ans = oracle.query(x, y)
            assert ans.local_map == self.expected_response(d, x, y, window, 11)
            assert (ans.delta_x, ans.delta_y) == (d.apply(x), d.apply(y))

    def test_deltas_are_the_derivation_values(self):
        d = SuperDerivation(SW22, el(SW22, (KIND_L, 1, 1), (KIND_Q, -1, 2)), F(3))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=0)
        x, y = el(SW22, (KIND_G, 0, 1)), el(SW22, (KIND_I, 2, 1), (KIND_C2, 0, 1))
        ans = oracle.query(x, y)
        assert ans.local_map != d
        assert (ans.delta_x, ans.delta_y) == (d.apply(x), d.apply(y))

    def test_repeated_element_gets_consistent_deltas(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=9)
        x = el(SVIR0, (KIND_L, -1, 1), (KIND_G, 2, 1))
        ans = oracle.query(x, x)
        assert ans.delta_x == ans.delta_y == ans.local_map.apply(x)

    def test_value_at_the_first_argument_is_kept_for_the_latest_one(self, monkeypatch):
        apply = SuperDerivation.apply
        d = SuperDerivation(SW22, el(SW22, (KIND_L, 1, 1), (KIND_Q, -1, 2)), F(3))
        calls = []

        def counted(self, x):
            if self is d:
                calls.append(x)
            return apply(self, x)

        monkeypatch.setattr(SuperDerivation, "apply", counted)
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=0)
        a1, a2, probe = anchor_pair(SW22)
        ys = [a2, probe, el(SW22, (KIND_I, 2, 1)), a2]
        for y in ys:
            ans = oracle.query(a1, y)
            assert (ans.delta_x, ans.delta_y) == (apply(d, a1), apply(d, y))
        assert calls == [a1, *ys]
        # Only the most recent first argument is kept: a1 is evaluated again
        # after a query led by another element.
        oracle.query(a2, a1)
        oracle.query(a1, a2)
        assert calls[len(ys) + 1:] == [a2, a1, a1, a2]

    def test_the_kept_first_argument_is_matched_without_hashing(self, monkeypatch):
        """A repeated first argument is found by identity, so it is never
        hashed; an equal but distinct one recomputes the same answers."""
        d = sample_derivation(SW22)
        window = GradedWindow(F(4))
        a1, a2, probe = anchor_pair(SW22)
        oracle = make_honest_oracle(d, window, seed=3)
        first = oracle.query(a1, a2)
        element_hash, hashed = Element.__hash__, []

        def counted(self):
            hashed.append(self)
            return element_hash(self)

        monkeypatch.setattr(Element, "__hash__", counted)
        assert oracle.query(a1, a2) == first
        assert hashed == []
        monkeypatch.undo()
        twin = Element(SW22, dict(a1.terms))
        assert twin == a1 and twin is not a1
        assert oracle.query(twin, a2) == first
        fresh = make_honest_oracle(d, window, seed=3)
        assert oracle.query(a1, probe) == fresh.query(a1, probe)


class TestGlobalizeHonest:
    def test_vir_recovers_the_derivation(self):
        d = SuperDerivation.ad(el(VIR, (KIND_L, 1, 1), (KIND_L, -3, 2)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=5)
        cert = globalize(oracle, small_test_set(5))
        assert cert.verdict == "pass"
        assert cert.mu == 0
        assert cert.candidate == d
        assert all(rec.passed for rec in cert.checks)

    def test_svir0_recovers_the_derivation(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1), (KIND_G, 0, 1)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=42)
        cert = globalize(oracle, small_test_set(42))
        assert cert.verdict == "pass"
        assert cert.failure_witness is None
        assert cert.mu == 0
        assert cert.candidate == d
        for rec in cert.checks:
            assert rec.passed
            assert rec.expected == d.apply(rec.element)
            assert rec.got == rec.expected

    def test_svir12_recovers_the_derivation(self):
        d = SuperDerivation.ad(el(SVIR12, (KIND_G, F(1, 2), 1), (KIND_L, -2, 3)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=3)
        cert = globalize(oracle, small_test_set(3))
        assert cert.verdict == "pass"
        assert cert.candidate == d

    def test_sw22_recovers_the_outer_coefficient(self):
        d = SuperDerivation(SW22, el(SW22, (KIND_I, 2, 1)), F(3))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=7)
        cert = globalize(oracle, small_test_set(7))
        assert cert.verdict == "pass"
        assert cert.mu == 3
        assert cert.candidate == d
        assert all(rec.passed for rec in cert.checks)

    def test_probe_check_is_recorded_first(self):
        d = SuperDerivation(SW22, Element.zero(SW22), F(-1, 2))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=0)
        cert = globalize(oracle, small_test_set())
        assert cert.checks[0].element == anchor_pair(SW22)[2]
        assert cert.verdict == "pass" and cert.mu == F(-1, 2)


class TestGlobalizeDishonest:
    def test_residual_not_proportional_to_probe(self):
        probe = anchor_pair(SW22)[2]
        zero = SuperDerivation.zero(SW22)
        skew = RawLinearMap(SW22, {
            bv(SW22, KIND_I, 0): el(SW22, (KIND_I, 0, 2)),
            bv(SW22, KIND_Q, 0): el(SW22, (KIND_Q, 0, 3)),
        })

        def query(x, y):
            local = skew if y == probe else zero
            return OracleAnswer(local, local.apply(x), local.apply(y))

        cert = globalize(TwoLocalOracle(SW22, query), small_test_set())
        assert cert.verdict == "fail"
        assert cert.mu == 0
        assert cert.failure_witness == probe
        assert not cert.checks[0].passed

    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    @pytest.mark.parametrize("family", sg.ALL_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_adversaries_fail_with_witness(self, kind, family, seed):
        oracle = make_adversarial_oracle(kind, family)
        cert = globalize(oracle, small_test_set(seed))
        assert cert.verdict == "fail"
        assert cert.failure_witness is not None
        bad = next(rec for rec in cert.checks if not rec.passed)
        assert bad.element == cert.failure_witness
        assert bad.expected != bad.got

    def test_a_raw_candidate_keeps_mu_apart(self):
        """sw22 coefficient_square answers the anchor pair with a raw table and
        the probe with its squared image, whose residual gives mu = 1.  The
        candidate stays raw, so each check adds mu times D to its value."""
        cert = globalize(make_adversarial_oracle("coefficient_square", SW22),
                         small_test_set())
        assert isinstance(cert.candidate, RawLinearMap)
        assert cert.mu == 1
        for rec in cert.checks:
            assert rec.got == cert.candidate.apply(rec.element) + outer_action(rec.element)
        assert any(not outer_action(rec.element).is_zero for rec in cert.checks)

    def test_unknown_adversarial_kind(self):
        with pytest.raises(ValueError):
            make_adversarial_oracle("nope", SVIR0)


class TestScalarRatio:
    def test_proportional_residual(self):
        probe = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
        assert _scalar_ratio(el(SW22, (KIND_I, 0, 3), (KIND_Q, 0, 3)), probe) == 3
        assert _scalar_ratio(el(SW22, (KIND_I, 0, F(-1, 2)), (KIND_Q, 0, F(-1, 2))),
                             probe) == F(-1, 2)

    def test_same_support_but_not_proportional(self):
        probe = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
        assert _scalar_ratio(el(SW22, (KIND_I, 0, 2), (KIND_Q, 0, 3)), probe) is None

    def test_different_support(self):
        probe = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
        num = el(SW22, (KIND_I, 0, 2), (KIND_Q, 0, 2), (KIND_L, 1, 2))
        assert _scalar_ratio(num, probe) is None

    def test_residual_without_the_first_term_of_den(self):
        probe = el(SW22, (KIND_I, 0, 1), (KIND_Q, 0, 1))
        assert _scalar_ratio(el(SW22, (KIND_Q, 0, 2)), probe) is None


class TestHomogeneity:
    def test_honest_oracle_is_homogeneous(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=2)
        samples = [(F(2), el(SVIR0, (KIND_L, 1, 1))),
                   (F(-1, 2), el(SVIR0, (KIND_G, 2, 1), (KIND_L, 0, 1)))]
        assert homogeneity_check(oracle, samples) == [True, True]

    def test_coefficient_squaring_is_caught(self):
        oracle = make_adversarial_oracle("coefficient_square", SVIR0)
        x = el(SVIR0, (KIND_L, 1, 1))
        assert homogeneity_check(oracle, [(F(2), x)]) == [False]
        assert homogeneity_check(oracle, [(F(1), x)]) == [True]

    def test_vir_reading_path(self):
        oracle = make_adversarial_oracle("pairwise_inconsistent", VIR)
        special = el(VIR, (KIND_L, 2, 1))
        assert homogeneity_check(oracle, [(F(2), special)]) == [False]
        honest = make_honest_oracle(SuperDerivation.ad(el(VIR, (KIND_L, 2, 1))),
                                    GradedWindow(F(3)), seed=4)
        assert homogeneity_check(honest, [(F(3), el(VIR, (KIND_L, -1, 1)))]) == [True]

    def test_zero_scalar_rejected(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_L, 1, 1)))
        oracle = make_honest_oracle(d, GradedWindow(F(0)), seed=0)
        with pytest.raises(ValueError):
            homogeneity_check(oracle, [(F(0), el(SVIR0, (KIND_L, 1, 1)))])


class TestCertificates:
    def test_json_key_order(self):
        d = SuperDerivation.ad(el(SVIR0, (KIND_G, 1, 1)))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=11)
        cert = globalize(oracle, small_test_set(11))
        payload = cert.to_dict()
        assert list(payload) == ["family", "candidate", "mu", "checks",
                                 "verdict", "failure_witness"]
        assert list(payload["checks"][0]) == ["element", "expected", "got", "pass"]
        assert payload["mu"] == "0"
        assert payload["failure_witness"] is None

    def test_json_is_byte_identical_across_runs(self):
        def run():
            d = SuperDerivation(SW22, el(SW22, (KIND_L, -1, 1)), F(2))
            oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=13)
            return globalize(oracle, small_test_set(13)).to_json()

        assert run() == run()

    def test_raw_candidate_serialization(self):
        oracle = make_adversarial_oracle("coefficient_square", SVIR0)
        cert = globalize(oracle, small_test_set())
        candidate = cert.to_dict()["candidate"]
        assert candidate["inner"] is None and candidate["lambda"] is None
        assert candidate["raw"] == {"G[0]": "G[0]", "G[1]": "G[1]"}

    def test_certificate_is_recheckable_from_json(self):
        d = SuperDerivation(SW22, el(SW22, (KIND_I, 2, 1), (KIND_L, 1, -2)), F(3))
        oracle = make_honest_oracle(d, GradedWindow(F(4)), seed=21)
        payload = json.loads(globalize(oracle, small_test_set(21)).to_json())
        rebuilt = SuperDerivation(
            SW22,
            parse_element(payload["candidate"]["inner"], SW22),
            Fraction(payload["candidate"]["lambda"]),
        )
        assert rebuilt == d
        assert Fraction(payload["mu"]) == 3
        for rec in payload["checks"]:
            element = parse_element(rec["element"], SW22)
            expected = parse_element(rec["expected"], SW22)
            assert rebuilt.apply(element) == expected
            assert rec["pass"] is True
        assert payload["verdict"] == "pass"


class TestTestSet:
    def test_deterministic_and_complete(self):
        ts = small_test_set(17)
        first = ts.elements(SVIR0)
        assert first == ts.elements(SVIR0)
        assert len(first) == len(GradedWindow(F(2)).basis_vectors(SVIR0)) + 5
        assert el(SVIR0, (KIND_C, 0, 1)) in first
        for b in GradedWindow(F(2)).basis_vectors(SVIR0):
            assert Element.basis(b) in first

    def test_random_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(TestSet, "elements", None)  # building any would fail
        TestSet(GradedWindow(F(2)), MAX_RANDOM_TESTS, 0)
        with pytest.raises(ValueError, match="at most %d" % MAX_RANDOM_TESTS):
            TestSet(GradedWindow(F(2)), MAX_RANDOM_TESTS + 1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            TestSet(GradedWindow(F(2)), -1, 0)

    def test_seed_changes_random_tail(self):
        a = TestSet(GradedWindow(F(2)), 8, 1).elements(SW22)
        b = TestSet(GradedWindow(F(2)), 8, 2).elements(SW22)
        assert a != b
