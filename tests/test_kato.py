"""Concentration bounds: closed-form coefficients, conversions, pipeline."""

import math
import sys
from decimal import Context, Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triqss import (
    EpsilonBudget,
    NumericalDegeneracyError,
    ParameterError,
    azuma_deviation,
    expected_to_observed,
    kato_coeffs_numeric,
    kato_failure_probability,
    kato_lower_coeffs,
    kato_upper_coeffs,
    key_length,
    observed_to_expected,
    phase_error_upper_bound,
)
from triqss import finitekey
from triqss.finitekey import _kato_core, _key_length
from triqss.optics import binary_entropy

import decimal_chain
import golden_reference

GRID_K = (1e3, 1e5, 1e7, 1e9)
GRID_FRAC = (0.001, 0.01, 0.1, 0.5, 0.9)
GRID_EPS = (1e-6, 1e-10)


def grid_points():
    for k in GRID_K:
        for frac in GRID_FRAC:
            for eps in GRID_EPS:
                yield k * frac, k, eps


class TestClosedFormCoefficients:
    def test_frozen_midpoint_values(self):
        up = kato_upper_coeffs(5e5, 1e6, 1e-10)
        assert up.a == pytest.approx(-0.015350253106502735, rel=1e-12)
        assert up.deviation == pytest.approx(3393.0354890388417, rel=1e-12)

    @pytest.mark.parametrize("k", [1.0, 1e3, 1e6, 1e24])
    @pytest.mark.parametrize("coeffs", [
        kato_upper_coeffs, kato_lower_coeffs,
        pytest.param(lambda lam, k, eps: kato_coeffs_numeric(lam, k, eps, "upper"),
                     id="numeric_upper"),
        pytest.param(lambda lam, k, eps: kato_coeffs_numeric(lam, k, eps, "lower"),
                     id="numeric_lower"),
    ])
    def test_deviation_is_nonnegative_where_it_cancels(self, coeffs, k):
        # at lam = k (upper tail) and lam = 0 (lower) b + a(2 lam / k - 1)
        # cancels to zero, and rounding once left -1.1e-16 at k = 1; the
        # numeric search's a cancels at both end points in both tails, and
        # once left -1.7e-15 at k = 1 and -6e4 at k = 1e24
        for lam in (0.0, k):
            assert coeffs(lam, k, 1e-10).deviation >= 0.0

    def test_midpoint_coefficient_is_not_zero(self):
        # the optimum is near zero at the midpoint but measurably below it
        up = kato_upper_coeffs(5e5, 1e6, 1e-10)
        assert up.a < -0.015

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_matches_brute_force_on_grid(self, direction):
        closed_fn = kato_upper_coeffs if direction == "upper" else kato_lower_coeffs
        for lam, k, eps in grid_points():
            closed = closed_fn(lam, k, eps)
            numeric = kato_coeffs_numeric(lam, k, eps, direction)
            assert closed.deviation == pytest.approx(numeric.deviation, rel=1e-6), (
                f"lam={lam} k={k} eps={eps} dir={direction}")

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_back_substituted_failure_probability(self, direction):
        closed_fn = kato_upper_coeffs if direction == "upper" else kato_lower_coeffs
        for lam, k, eps in grid_points():
            c = closed_fn(lam, k, eps)
            achieved = kato_failure_probability(c.a, c.b, k, direction)
            assert achieved == pytest.approx(eps, rel=1e-9), (
                f"lam={lam} k={k} eps={eps} dir={direction}")

    def test_lower_mirrors_upper(self):
        for lam, k, eps in grid_points():
            lo = kato_lower_coeffs(lam, k, eps)
            up_mirror = kato_upper_coeffs(k - lam, k, eps)
            assert lo.a == pytest.approx(-up_mirror.a, rel=1e-12, abs=1e-15)

    def test_b_dominates_a(self):
        for lam, k, eps in grid_points():
            for c in (kato_upper_coeffs(lam, k, eps), kato_lower_coeffs(lam, k, eps)):
                assert c.b >= abs(c.a)

    def test_deviation_ordering_against_simpler_bounds(self):
        for lam, k, eps in grid_points():
            optimized = kato_upper_coeffs(lam, k, eps).deviation
            fixed_coeff = math.sqrt(0.5 * k * math.log(1.0 / eps))
            azuma = azuma_deviation(k, eps)
            assert optimized <= fixed_coeff + 1e-9
            assert fixed_coeff <= azuma

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            kato_upper_coeffs(-1.0, 1e6, 1e-10)
        with pytest.raises(ParameterError):
            kato_upper_coeffs(2e6, 1e6, 1e-10)
        with pytest.raises(ParameterError):
            kato_upper_coeffs(100.0, 1e6, 2.0)
        # an infinite trial count would make every deviation nan
        with pytest.raises(ParameterError):
            kato_upper_coeffs(5.0, math.inf, 1e-10)
        with pytest.raises(ParameterError):
            expected_to_observed(5.0, math.inf, 1e-10, "upper")
        with pytest.raises(ParameterError):
            azuma_deviation(math.inf, 1e-10)
        # below one trial the constraint once had no real b (k = 1e-20)
        for k in (1e-20, 0.5):
            with pytest.raises(ParameterError, match="at least 1"):
                kato_upper_coeffs(0.0, k, 1e-10)
            with pytest.raises(ParameterError, match="at least 1"):
                kato_coeffs_numeric(0.0, k, 1e-10, "lower")

    @pytest.mark.parametrize("k", [1e77, 1e200])
    @pytest.mark.parametrize("coeffs", [kato_upper_coeffs, kato_lower_coeffs])
    def test_overflowing_trial_count_is_degenerate(self, coeffs, k):
        # k * k * lam * (k - lam) overflows; the coefficients would be nan
        with pytest.raises(NumericalDegeneracyError):
            coeffs(k / 2, k, 1e-10)

    def test_overflowing_constraint_is_degenerate(self):
        # the numeric search reaches a = 3 sqrt(k), where a * a * k overflows
        with pytest.raises(NumericalDegeneracyError):
            kato_coeffs_numeric(5e199, 1e200, 1e-10, "upper")

    def test_largest_decade_without_overflow(self):
        for coeffs in (kato_upper_coeffs, kato_lower_coeffs):
            c = coeffs(5e75, 1e76, 1e-10)
            assert all(math.isfinite(v) for v in (c.a, c.b, c.deviation))
            assert c.deviation == pytest.approx(
                expected_to_observed(0.0, 1e76, 1e-10, "upper"), rel=1e-9)


class TestConversions:
    def test_fixed_coefficient_deviation_value(self):
        # a = 0 conversion at k = 1e6, eps = 1e-10
        dev = expected_to_observed(0.0, 1e6, 1e-10, "upper")
        assert dev == pytest.approx(3393.070212207556, rel=1e-12)

    def test_azuma_reference_value(self):
        assert azuma_deviation(1e6, 1e-10) == pytest.approx(6786.140424415112, rel=1e-12)

    def test_azuma_is_twice_the_fixed_coefficient(self):
        for k in GRID_K:
            for eps in GRID_EPS:
                assert azuma_deviation(k, eps) == pytest.approx(
                    2.0 * math.sqrt(0.5 * k * math.log(1.0 / eps)), rel=1e-14)

    def test_deviations_below_the_reciprocal_overflow(self):
        # 1 / 1e-320 overflows; the subnormal 1e-320 is stored to about 2e-4
        dev = expected_to_observed(0.0, 1e6, 1e-320, "upper")
        assert dev == pytest.approx(math.sqrt(0.5e6 * 320 * math.log(10.0)), rel=1e-6)
        assert azuma_deviation(1e6, 1e-320) == pytest.approx(2.0 * dev, rel=1e-14)

    def test_quadrupling_k_doubles_the_fixed_deviation(self):
        for k in (1e4, 1e6):
            d1 = expected_to_observed(0.0, k, 1e-10, "upper")
            d4 = expected_to_observed(0.0, 4 * k, 1e-10, "upper")
            assert d4 == 2.0 * d1

    def test_observed_to_expected_brackets_observation(self):
        for lam, k, eps in grid_points():
            hi = observed_to_expected(lam, k, eps, "upper")
            lo = observed_to_expected(lam, k, eps, "lower")
            assert lo <= lam <= hi
            assert lo >= 0.0

    def test_lower_bound_clamps_at_zero(self):
        assert observed_to_expected(1.0, 1e6, 1e-10, "lower") == 0.0

    def test_bernoulli_coverage(self):
        # true mean k*p must fall inside [lower, upper] in >= 1 - 2 eps of
        # trials; at eps = 1e-10 every one of the 1e4 draws must be covered
        rng = np.random.default_rng(1905)
        k, eps, trials = 10 ** 5, 1e-10, 10 ** 4
        for p in (0.01, 0.1, 0.5):
            lams = rng.binomial(k, p, size=trials)
            misses = 0
            for lam in np.unique(lams):
                hi = observed_to_expected(float(lam), k, eps, "upper")
                lo = observed_to_expected(float(lam), k, eps, "lower")
                if not lo <= k * p <= hi:
                    misses += int(np.sum(lams == lam))
            assert misses == 0, f"p={p}: {misses}/{trials} trials not covered"


DIRECTION_CALLS = {
    "kato_failure_probability": lambda d: kato_failure_probability(0.0, 1.0, 1e6, d),
    "kato_coeffs_numeric": lambda d: kato_coeffs_numeric(5e5, 1e6, 1e-10, d),
    "observed_to_expected": lambda d: observed_to_expected(5e5, 1e6, 1e-10, d),
    "expected_to_observed": lambda d: expected_to_observed(5e5, 1e6, 1e-10, d),
}


class TestArgumentChecks:
    @pytest.mark.parametrize("direction", ["sideways", None, "Upper"])
    @pytest.mark.parametrize("function", list(DIRECTION_CALLS))
    def test_rejects_an_unknown_direction(self, function, direction):
        with pytest.raises(ParameterError) as info:
            DIRECTION_CALLS[function](direction)
        assert str(info.value) == "direction must be 'upper' or 'lower'"

    def test_numeric_check_reports_the_observed_sum_before_the_direction(self):
        with pytest.raises(ParameterError, match="observed sum"):
            kato_coeffs_numeric(-1.0, 1e6, 1e-10, "sideways")

    @pytest.mark.parametrize("a, b, k, direction", [
        (0.0, 1.0, -1.0, "upper"),
        (0.0, 1.0, 0.0, "upper"),
        (0.0, 1.0, math.inf, "upper"),
        (-750.0, 1000.0, 1e6, "upper"),   # a = -3 sqrt(k) / 4 zeroes the denominator
        (750.0, 1000.0, 1e6, "lower"),
        (math.nan, 1.0, 1e6, "upper"),
        (0.0, math.nan, 1e6, "lower"),
        (math.inf, math.inf, 1e6, "upper"),   # was a NaN result
        (-math.inf, math.inf, 1e6, "lower"),
        (0.0, math.inf, 1e6, "upper"),
        (-1000.0, 2000.0, 1e6, "upper"),   # denominator -1/3; was 0.0
        (1000.0, 2000.0, 1e6, "lower"),
    ], ids=["k-negative", "k-zero", "k-inf", "upper-zero-denominator",
            "lower-zero-denominator", "a-nan", "b-nan", "a-b-inf-upper", "a-b-inf-lower",
            "b-inf", "upper-negative-denominator", "lower-negative-denominator"])
    def test_failure_probability_rejects_bad_input(self, a, b, k, direction):
        with pytest.raises(ParameterError):
            kato_failure_probability(a, b, k, direction)

    @pytest.mark.parametrize("a, direction", [(-749.0, "upper"), (749.0, "lower")])
    def test_failure_probability_accepts_a_small_positive_denominator(self, a, direction):
        # denominator 1/750: exp(-2 (1000^2 - 749^2) 750^2), which underflows to 0
        assert kato_failure_probability(a, 1000.0, 1e6, direction) == 0.0
        assert kato_failure_probability(a, abs(a), 1e6, direction) == 1.0

    def test_expected_to_observed_rejects_a_nan_expectation(self):
        with pytest.raises(ParameterError, match="expected sum must be nonnegative"):
            expected_to_observed(math.nan, 1e6, 1e-10, "upper")


class TestPhaseErrorPipeline:
    N_X, N_Y, MU, GAIN = 787407, 9553, 9e-4, 2.1565274431057558e-05

    def test_reference_table_row(self, budget):
        bound = phase_error_upper_bound(self.N_X, self.N_Y, 111, self.MU, self.GAIN, budget)
        assert bound.ep_bar == pytest.approx(0.16973920492264538, rel=1e-12)
        assert bound.m_y_expected == pytest.approx(198.5248386217448, rel=1e-12)
        assert bound.delta == pytest.approx(0.018768926680927285, rel=1e-12)
        assert not bound.ep_clamped and not bound.epbar_clamped

    @pytest.mark.parametrize("n_x,n_y", [
        (math.inf, N_Y), (N_X, math.inf), (math.nan, N_Y), (N_X, math.nan), (0.0, N_Y), (N_X, -1.0),
        (N_X, 0.5),
    ])
    def test_rejects_counts_that_are_not_positive_and_finite(self, budget, n_x, n_y):
        with pytest.raises(ParameterError, match="positive and finite"):
            phase_error_upper_bound(n_x, n_y, 0.0, self.MU, self.GAIN, budget)

    def test_rejects_an_infinite_gain(self, budget):
        # it once rated the set with a balanced coin, ep_bar 0.005195
        with pytest.raises(ParameterError, match="detection gain"):
            phase_error_upper_bound(1e10, 1e4, 10, 1e-3, math.inf, budget)

    def test_monotone_in_observed_errors(self, budget):
        bounds = [
            phase_error_upper_bound(self.N_X, self.N_Y, m, self.MU, self.GAIN, budget).ep_bar
            for m in (0, 30, 111, 300, 1000)
        ]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))

    def test_monotone_in_intensity(self, budget):
        bounds = [
            phase_error_upper_bound(self.N_X, self.N_Y, 111, mu, self.GAIN, budget).ep_bar
            for mu in (1e-4, 5e-4, 9e-4, 1.2e-3)
        ]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))

    def test_each_stage_only_enlarges(self, budget):
        bound = phase_error_upper_bound(self.N_X, self.N_Y, 111, self.MU, self.GAIN, budget)
        assert bound.ep_bar >= bound.ep_expected >= bound.eb_y_expected >= 111 / self.N_Y

    def test_vanishing_failure_budget_limit(self):
        # with eps -> 1 both concentration corrections vanish; with no
        # observed errors and negligible imbalance the bound goes to zero
        loose = EpsilonBudget(eps_c=0.5, eps_pa=0.5,
                              eps_a=1 - 1e-12, eps_b=1 - 1e-12)
        bound = phase_error_upper_bound(self.N_X, self.N_Y, 0, 1e-8, self.GAIN, loose)
        assert bound.ep_bar < 1e-4

    def test_tiny_eps_b_keeps_the_bound_below_one(self, budget):
        tiny = EpsilonBudget(eps_b=1e-320)
        bound = phase_error_upper_bound(self.N_X, self.N_Y, 111, self.MU, self.GAIN, tiny)
        default = phase_error_upper_bound(self.N_X, self.N_Y, 111, self.MU, self.GAIN, budget)
        assert default.ep_bar < bound.ep_bar < 1.0
        assert not bound.epbar_clamped

    def test_saturated_errors_clamp(self, budget):
        bound = phase_error_upper_bound(1000, 50, 50, self.MU, self.GAIN, budget)
        assert bound.ep_bar == 1.0
        assert bound.epbar_clamped or bound.ep_clamped or bound.eby_clamped


def raw_key_length(n_x, ep_bar, eb_x, ec_efficiency, budget):
    """The key length before flooring, which may be negative."""
    return _key_length(n_x, ep_bar, binary_entropy(eb_x), ec_efficiency, budget)[1]


class TestKeyLength:
    def test_half_phase_error_gives_zero(self, budget):
        assert key_length(10 ** 6, 0.5, 0.01, 1.16, budget) == 0

    def test_beyond_half_stays_zero(self, budget):
        # the entropy dip above one half must not resurrect the key
        assert key_length(10 ** 6, 0.95, 0.01, 1.16, budget) == 0

    def test_reference_row_magnitude(self, budget):
        # counts and rates of the bundled reference table's first row; the
        # published per-pulse rate for it is 4.32e-6 with a +-25% window
        ell = key_length(787407, 0.1566, 0.0095, 1.16, budget)
        assert ell == 223551
        assert ell / 5e10 == pytest.approx(4.32e-6, rel=0.25)

    def test_monotone_in_each_argument(self, budget):
        base = raw_key_length(10 ** 6, 0.1, 0.01, 1.16, budget)
        assert raw_key_length(10 ** 6, 0.12, 0.01, 1.16, budget) < base
        assert raw_key_length(10 ** 6, 0.1, 0.013, 1.16, budget) < base
        assert raw_key_length(10 ** 6, 0.1, 0.01, 1.3, budget) < base

    def test_floor_and_clamp(self, budget):
        assert key_length(100, 0.45, 0.2, 1.5, budget) == 0
        raw = raw_key_length(10 ** 6, 0.1, 0.01, 1.16, budget)
        assert key_length(10 ** 6, 0.1, 0.01, 1.16, budget) == math.floor(raw)

    def test_costs_at_the_default_budget_are_unchanged(self, budget):
        # the fixed costs, written as sums of logarithms, keep the bits of
        # log2(2 / eps_c) + log2(1 / (4 eps_pa^2)) at eps = 1e-10
        raw = raw_key_length(10 ** 6, 0.1, 0.01, 1.16, budget)
        h = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        direct = (10 ** 6 * (1 - h(0.1)) - 10 ** 6 * 1.16 * h(0.01)
                  - math.log2(2 / 1e-10) - math.log2(1 / (4 * 1e-10 ** 2)))
        assert raw == direct

    @pytest.mark.parametrize("tiny,cost", [
        (dict(eps_pa=1e-200), 380 * math.log2(10.0)),
        (dict(eps_c=1e-320), 310 * math.log2(10.0)),
    ])
    def test_tiny_eps_costs_their_bits(self, budget, tiny, cost):
        # eps_pa ** 2 underflows to zero and 2 / eps_c overflows; the
        # subnormal 1e-320 is stored to about 2e-4, a few 1e-4 bits
        raw = raw_key_length(10 ** 6, 0.1, 0.01, 1.16, EpsilonBudget(**tiny))
        assert raw == pytest.approx(raw_key_length(10 ** 6, 0.1, 0.01, 1.16, budget) - cost,
                                    abs=1e-3)

    # a leak that overflows leaves the raw length -inf: no key, not an error
    @pytest.mark.parametrize("n_x,eb_x", [(10 ** 6, 0.01)])
    def test_huge_efficiency_gives_no_key(self, budget, n_x, eb_x):
        raw = raw_key_length(n_x, 0.1, eb_x, 1e308, budget)
        assert not raw > 0.0
        assert key_length(n_x, 0.1, eb_x, 1e308, budget) == 0

    # with H(eb_x) = 0 the leak is 0, though n_x f overflows
    def test_huge_efficiency_without_bit_errors_keeps_the_key(self, budget):
        assert raw_key_length(1e300, 0.1, 0.0, 1e308, budget) == \
            raw_key_length(1e300, 0.1, 0.0, 1.0, budget)
        assert key_length(1e300, 0.1, 0.0, 1e308, budget) == \
            key_length(1e300, 0.1, 0.0, 1.0, budget) > 5e299

    @pytest.mark.parametrize("n_x", [0, -1.0])
    def test_rejects_a_key_set_without_detections(self, budget, n_x):
        with pytest.raises(ParameterError, match=r"^key-set detection count must be positive$"):
            key_length(n_x, 0.1, 0.01, 1.16, budget)

    def test_rejects_inefficient_correction(self, budget):
        for fe in (0.9, math.nan, math.inf):
            with pytest.raises(ParameterError):
                key_length(10 ** 6, 0.1, 0.01, fe, budget)

    @pytest.mark.parametrize("ep_bar", [-1e-3, math.nan])
    # key_length is the one checked entry of the key length
    @pytest.mark.parametrize("length_of", [key_length])
    def test_rejects_a_negative_phase_error_rate(self, budget, length_of, ep_bar):
        with pytest.raises(ParameterError, match=r"^phase error rate ep_bar must be nonnegative$"):
            length_of(10 ** 6, ep_bar, 0.01, 1.16, budget)


def log_uniform(low: float, high: float):
    """Floats whose base-10 logarithm is drawn from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


U = Decimal(2.0 ** -53)   # unit roundoff of a float


def entropy_error(h: Decimal) -> Decimal:
    """Bound on the error of the float entropy at a float ``x``, given the
    exact ``h = H(x)``: ``log2`` within an ulp, two products and a sum give
    ``8u H``; ``1 - x`` rounds by at most ``u / 2``, which moves
    ``(1-x) log2(1-x)`` by at most ``0.72 u``, and where it rounds to 1 the
    term it drops is at most 2.7% of ``H``."""
    return 8 * U * h + min(Decimal("0.03") * h, U)


def floor_plus(y: Decimal) -> int:
    return int(y) if y > 0 else 0


EPS_RANGE = st.one_of(st.floats(1e-15, 0.3), log_uniform(-15.0, math.log10(0.3)))


class TestKatoCoreDomain:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.one_of(log_uniform(0.0, 76.0), st.sampled_from([1.0, 1e76])),
        lam_share=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
        eps=st.one_of(log_uniform(-300.0, math.log10(0.9)), st.sampled_from([1e-300, 0.9])),
        sign=st.sampled_from([1.0, -1.0]),
        # a in units of 3 sqrt(k): the closed form's (None), the numeric
        # search bracket, and its two points where 4a + 3 sqrt(k) cancels
        a_share=st.one_of(st.none(), st.floats(-1.0, 1.0), st.sampled_from([-0.25, 0.25])),
    )
    def test_only_an_overflow_is_degenerate(self, k, lam_share, eps, sign, a_share):
        # at k >= 1 the closed form's discriminant and the constraint's
        # 18 k b^2 are sums and products of terms that are not negative
        lam = min(lam_share * k, k)
        a = None if a_share is None else a_share * 3.0 * math.sqrt(k)
        try:
            _, b, dev = _kato_core(lam, k, math.log(eps), sign, a)
        except NumericalDegeneracyError as exc:
            assert "overflows" in str(exc)
        else:
            assert b >= 0.0 and dev >= 0.0


def _objective_calls(search) -> int:
    """Objective evaluations of the numeric check at the reference point,
    with ``search`` as its line search."""
    calls = []

    def counted(f, lo, hi, **kwargs):
        return search(lambda a: calls.append(a) or f(a), lo, hi, **kwargs)

    with mock.patch.object(finitekey, "golden_max", counted):
        kato_coeffs_numeric(5e5, 1e6, 1e-10, "upper")
    return len(calls)


class TestNumericSearchStopsAtItsCycle:
    """``kato_coeffs_numeric`` against the same search run to its step cap,
    ``tests/golden_reference.py``: at tol 0 the bracket settles into a
    two-state cycle at ulp scale long before the cap."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.one_of(log_uniform(0.0, 76.0), st.sampled_from([1.0, 1e6, 1e40, 1e76])),
        lam_share=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
        eps=EPS_RANGE,
        direction=st.sampled_from(["upper", "lower"]),
    )
    def test_equals_the_step_capped_search_bit_for_bit(self, k, lam_share, eps, direction):
        lam = min(lam_share * k, k)
        found = kato_coeffs_numeric(lam, k, eps, direction)
        with mock.patch.object(finitekey, "golden_max", golden_reference.golden_max):
            expected = kato_coeffs_numeric(lam, k, eps, direction)
        assert ([found.a.hex(), found.b.hex(), found.deviation.hex()]
                == [expected.a.hex(), expected.b.hex(), expected.deviation.hex()])

    def test_stops_after_about_half_the_evaluations(self):
        # the cycle begins at step 102 of 200 here
        assert _objective_calls(golden_reference.golden_max) == 203
        assert _objective_calls(finitekey.golden_max) <= 110


class TestKeyLengthAgainstDecimal:
    """``_key_length`` and ``key_length`` against ``tests/decimal_chain.py``,
    within tolerances derived from a float error bound on each term."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_x=st.one_of(st.floats(1.0, 1e70), log_uniform(0.0, 70.0),
                      st.sampled_from([1.0, 1e6, 1e70])),
        ep_bar=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
        eb_x=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324])),
        f=st.one_of(st.floats(1.0, 1e3), st.just(1e308)),
        eps_c=EPS_RANGE,
        eps_pa=EPS_RANGE,
    )
    # the reference row of TestKeyLength
    @example(n_x=787407.0, ep_bar=0.1566, eb_x=0.0095, f=1.16, eps_c=1e-10, eps_pa=1e-10)
    # H(eb_x) = 0: no leak, though n_x f overflows
    @example(n_x=1e70, ep_bar=0.1, eb_x=0.0, f=1e308, eps_c=1e-10, eps_pa=1e-10)
    # a leak that overflows: no key
    @example(n_x=1e6, ep_bar=0.1, eb_x=0.01, f=1e308, eps_c=1e-10, eps_pa=1e-10)
    # n_x f overflows, but the leak is about 5e-7 bits
    @example(n_x=1e6, ep_bar=0.1, eb_x=5e-324, f=1e308, eps_c=1e-10, eps_pa=1e-10)
    # past one half the phase error rate costs what one half does
    @example(n_x=1e9, ep_bar=0.75, eb_x=0.0, f=1.0, eps_c=0.3, eps_pa=0.3)
    def test_matches_the_decimal_transcription(self, n_x, ep_bar, eb_x, f, eps_c, eps_pa):
        budget = EpsilonBudget(eps_c=eps_c, eps_pa=eps_pa)
        ell, raw, lam = _key_length(n_x, ep_bar, binary_entropy(eb_x), f, budget)
        _, exact_raw, exact_lam = decimal_chain.key_length(
            n_x, ep_bar, eb_x, f, eps_c, eps_pa)
        with localcontext(Context(prec=decimal_chain.DIGITS)):
            n, h_ep = Decimal(n_x), decimal_chain.entropy(min(ep_bar, 0.5))
            costs = n * (1 - h_ep) - exact_lam - exact_raw
            e_lam = n * Decimal(f) * entropy_error(decimal_chain.entropy(eb_x)) + 2 * U * exact_lam
            e_raw = n * entropy_error(h_ep) + e_lam + 8 * U * (n + exact_lam + costs + 2)
            if lam == math.inf:
                assert exact_lam + e_lam >= Decimal(sys.float_info.max)
                assert raw == -math.inf
            else:
                assert abs(Decimal(lam) - exact_lam) <= e_lam
                assert abs(Decimal(raw) - exact_raw) <= e_raw
            assert type(ell) is int
            assert floor_plus(exact_raw - e_raw) <= ell <= floor_plus(exact_raw + e_raw)
        assert key_length(n_x, ep_bar, eb_x, f, budget) == ell


class TestEpsilonBudget:
    def test_defaults(self, budget):
        assert budget.eps_c == budget.eps_pa == budget.eps_a == budget.eps_b == 1e-10
        assert budget.eps_phase == pytest.approx(2e-10)
        assert budget.eps_secrecy == pytest.approx(math.sqrt(2e-10) + 1e-10)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ParameterError):
            EpsilonBudget(eps_a=value)
