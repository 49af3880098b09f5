"""Key rate evaluation, optimization, and distance sweeps."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqss import (
    AllAbortError,
    ChannelModel,
    EpsilonBudget,
    NumericalDegeneracyError,
    ParameterError,
    ZeroCountError,
    asymptotic_sweep,
    finite_rate,
    golden_max,
    optimize_params,
    sweep_distance,
)
from triqss import rates
from triqss.cli import main
from triqss.finitekey import EC_EFFICIENCY, _key_length, key_length
from triqss.finitekey import phase_error_upper_bound
from triqss.optics import binary_entropy, bit_error_x, gain, transmittance
from triqss.roundtable import set_shares

import golden_reference

SWEEP_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "refs" / "sweep_finite_1e10.csv"


def _csv_lines(out):
    """The lines of a ``sweep`` output past its ``#`` header: column names, then rows."""
    return [line for line in out.splitlines() if not line.startswith("#")]


def _spy_on_evaluators(monkeypatch):
    """Count the calls of every evaluator built from now on, one entry each."""
    calls = []
    build = rates._rate_evaluator

    def counting_build(*args, **kwargs):
        evaluate = build(*args, **kwargs)
        calls.append(0)
        slot = len(calls) - 1

        def counted(mu, px):
            calls[slot] += 1
            return evaluate(mu, px)

        return counted

    monkeypatch.setattr(rates, "_rate_evaluator", counting_build)
    return calls


def _score(length_km, mu, px, n_pulses, channel):
    """The finite rate per pulse, or 0.0 where the working point fails."""
    try:
        return finite_rate(length_km, mu, px, n_pulses, channel).rate_per_pulse
    except rates._SCORED_ZERO:
        return 0.0


class TestGoldenMax:
    def test_finds_quadratic_peak(self):
        x, f = golden_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.37, abs=1e-6)
        assert f == pytest.approx(0.0, abs=1e-10)

    def test_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            golden_max(lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi, message", [
        (-1e308, 1e308, "finite width"),
        (-math.inf, 1.0, "finite width"),
        (0.0, math.inf, "finite width"),
        (math.nan, 1.0, "hi > lo"),
        (0.0, math.nan, "hi > lo"),
    ])
    def test_rejects_a_bracket_that_is_not_finite(self, lo, hi, message):
        # an infinite width once returned (nan, nan) silently: it puts the
        # first inner points at -inf and +inf, and every later one at NaN
        with pytest.raises(ParameterError, match=message):
            golden_max(lambda x: -(x - 1.0) ** 2, lo, hi)

    @pytest.mark.parametrize("tol", [math.nan, -1e-300, -math.inf])
    def test_rejects_a_tolerance_that_is_nan_or_negative(self, tol):
        # a NaN tolerance once ran silently to the step cap
        with pytest.raises(ParameterError, match="tolerance"):
            golden_max(lambda x: -x * x, -1.0, 1.0, tol=tol)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(["parabola", "cosh", "gaussian", "quartic"]),
           lo=st.floats(-10.0, 10.0), width=st.floats(1e-3, 20.0),
           peak=st.floats(-0.2, 1.2), tol=st.sampled_from([0.0, 1e-4, 1e-5]))
    def test_matches_the_step_capped_search(self, shape, lo, width, peak, tol):
        # the search that runs every step until the bracket is within tol:
        # the same (x, f(x)) bit for bit and the same calls in the same
        # order, where at tol 0 the calls stop at the first recurring state
        # and the last call is the same one, at the returned point
        hi = lo + width
        c = lo + peak * width
        f = {"parabola": lambda x: -(x - c) ** 2,
             "cosh": lambda x: -math.cosh(x - c),
             "gaussian": lambda x: math.exp(-((x - c) ** 2)),
             "quartic": lambda x: -((x - c) ** 4) + 3.0}[shape]
        calls, reference_calls = [], []
        found = golden_max(lambda x: calls.append(x) or f(x), lo, hi, tol=tol)
        expected = golden_reference.golden_max(lambda x: reference_calls.append(x) or f(x),
                                               lo, hi, tol=tol)
        assert [v.hex() for v in found] == [v.hex() for v in expected]
        if tol > 0.0:
            assert calls == reference_calls
        else:
            assert calls[:-1] == reference_calls[:len(calls) - 1]
            assert calls[-1] == reference_calls[-1]


def _asymptotic_rate(mu, channel):
    """The infinite-key rate per pulse at intensity ``mu``."""
    return rates._asymptotic_point(mu, channel, EC_EFFICIENCY)[0]


class TestAsymptoticRate:
    def test_benchmark_value(self, bench_channel):
        assert _asymptotic_rate(9e-4, bench_channel) == pytest.approx(
            5.9644540120401865e-06, rel=1e-12)

    def test_clamped_at_zero_when_noisy(self, bench_channel):
        # intensity so high the imbalance penalty kills the rate entirely
        assert _asymptotic_rate(8e-3, bench_channel) == 0.0

    def test_golden_search_agrees_with_grid(self):
        ch = ChannelModel(length_km=100.0)
        grid = np.geomspace(1e-5, 1e-2, 4000)
        rates = [_asymptotic_rate(mu, ch) for mu in grid]
        best = int(np.argmax(rates))
        lx, _ = golden_max(lambda l: _asymptotic_rate(10.0 ** l, ch), -5.0, -2.0, tol=1e-7)
        step = grid[1] / grid[0]
        assert grid[best] / step <= 10.0 ** lx <= grid[best] * step


class TestFiniteRate:
    def test_matches_scaled_asymptotic_in_the_loose_limit(self):
        # enormous block, near-unity bases, failure budget pushed to 1:
        # the finite evaluation must collapse onto the asymptotic formula
        # times the X-sifting share
        ch = ChannelModel(length_km=50.0)
        loose = EpsilonBudget(eps_c=1 - 1e-9, eps_pa=1 - 1e-9,
                              eps_a=1 - 1e-9, eps_b=1 - 1e-9)
        mu, px = 5e-4, 0.99
        point = finite_rate(50.0, mu, px, 1e14, ch, budget=loose)
        target = px ** 3 * _asymptotic_rate(mu, ch)
        assert point.rate_per_pulse == pytest.approx(target, rel=1e-2)

    def test_zero_counts_raise(self, bench_channel):
        with pytest.raises(ZeroCountError):
            finite_rate(300.0, 1e-5, 0.9, 1e6, bench_channel)

    def test_heavier_x_bias_wins_at_the_benchmark_point(self, bench_channel):
        high = finite_rate(bench_channel.length_km, 9e-4, 0.9, 5e10, bench_channel)
        low = finite_rate(bench_channel.length_km, 9e-4, 0.7, 5e10, bench_channel)
        assert high.rate_per_pulse > low.rate_per_pulse > 0

    def test_abort_flag_tracks_zero_length(self, bench_channel):
        dead = finite_rate(bench_channel.length_km, 9e-4, 0.9, 1e7, bench_channel)
        assert dead.ell == 0 and dead.rate_per_pulse == 0.0
        alive = finite_rate(bench_channel.length_km, 9e-4, 0.9, 5e10, bench_channel)
        assert alive.ell > 0

    def test_uses_given_length_not_channel_length(self):
        ch = ChannelModel(length_km=999.0)
        point = finite_rate(50.0, 5e-4, 0.9, 1e12, ch)
        assert point.length_km == 50.0
        assert point.rate_per_pulse > 0


class TestRateEvaluator:
    def test_errors_match_finite_rate_one_bad_input_at_a_time(self):
        ch = ChannelModel()
        good = dict(length_km=50.0, mu=5e-4, px=0.9, n_pulses=1e10, channel=ch)
        cases = [
            (dict(n_pulses=0.0), ParameterError, "n_pulses must be positive"),
            (dict(length_km=-1.0), ParameterError, "fiber length"),
            (dict(length_km=math.nan), ParameterError, "fiber length"),
            (dict(px=1.0), ParameterError, "px must be in"),
            (dict(mu=-1e-4), ParameterError, "gain arguments"),
            (dict(ec_efficiency=0.5), ParameterError, "error-correction efficiency"),
            (dict(n_pulses=1e3), ZeroCountError, "below one event"),
            (dict(n_pulses=math.inf), ParameterError, "positive and finite"),
            (dict(mu=0.5), ParameterError, "coin imbalance"),
        ]
        for change, error, message in cases:
            with pytest.raises(error, match=message):
                finite_rate(**{**good, **change})

    @settings(max_examples=300, deadline=None)
    @given(
        length_km=st.floats(-20.0, 600.0),
        mu=st.floats(-1e-4, 0.2),
        px=st.floats(-0.05, 1.05),
        n_pulses=st.floats(-1e3, 1e16),
        dark=st.sampled_from([0.0, 2e-8, 1e-4]),
    )
    def test_optimizer_scores_finite_rate_or_zero(self, length_km, mu, px, n_pulses, dark):
        ch = ChannelModel(dark_count=dark)
        if n_pulses <= 0 or length_km < 0:
            # a bad pulse count or length is an input error, not a zero score
            with pytest.raises(ParameterError):
                finite_rate(length_km, mu, px, n_pulses, ch)
            with pytest.raises(ParameterError):
                optimize_params(length_km, n_pulses, ch)
            return
        expected = _score(length_km, mu, px, n_pulses, ch)
        try:
            trace = optimize_params(length_km, n_pulses, ch, extra_starts=((mu, px),)).trace
        except AllAbortError:
            # every request scored zero, this one included
            assert expected == 0.0
            return
        assert {r for m, p, r in trace if (m, p) == (mu, px)} == {expected}

    @settings(max_examples=200, deadline=None)
    @given(
        length_km=st.floats(0.0, 300.0),
        mu=st.floats(1e-6, 1e-2),
        px=st.floats(0.5, 0.99),
        n_pulses=st.floats(1e8, 1e14),
    )
    def test_finite_rate_equals_the_public_chain(self, length_km, mu, px, n_pulses):
        # the steps finite_rate takes, each through its public function
        ch = ChannelModel()
        budget = EpsilonBudget()
        try:
            point = finite_rate(length_km, mu, px, n_pulses, ch)
        except rates._SCORED_ZERO:
            return
        eta = transmittance(replace(ch, length_km=length_km))
        q = gain(mu, eta, ch.dark_count)
        ebx = bit_error_x(mu, eta, ch.dark_count, ch.misalignment)
        share_x, share_y = set_shares(px)
        n_x, n_y = n_pulses * share_x * q, n_pulses * share_y * q
        bound = phase_error_upper_bound(n_x, n_y, ebx * n_y, mu, q, budget)
        ell = key_length(n_x, bound.ep_bar, ebx, 1.16, budget)
        assert (point.ep_bar, point.eb_x, point.ell) == (bound.ep_bar, ebx, ell)
        assert point.rate_per_pulse == ell / n_pulses


class TestKeyLengthMonotone:
    # H is monotone on [0, 1/2] but its float values wobble by a few ulps
    # between neighbouring arguments, so "no increase" is up to rounding
    @staticmethod
    def _slack(n_x):
        return 1e-12 * (n_x + 100.0)

    @given(
        n_x=st.floats(1.0, 1e12),
        ep=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        eb_x=st.floats(0.0, 0.5),
    )
    def test_not_increasing_in_ep_bar(self, n_x, ep, eb_x):
        low, high = (_key_length(n_x, e, binary_entropy(eb_x), 1.16, EpsilonBudget())[1]
                     for e in ep)
        assert high <= low + self._slack(n_x)

    # above 1/2 an X error rate costs what its complement does (flip every
    # bit), so the error-correction term is monotone on [0, 1/2] only
    @given(
        n_x=st.floats(1.0, 1e12),
        ep_bar=st.floats(0.0, 1.0),
        eb=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)).map(sorted),
    )
    def test_not_increasing_in_eb_x(self, n_x, ep_bar, eb):
        low, high = (_key_length(n_x, ep_bar, binary_entropy(e), 1.16, EpsilonBudget())[1]
                     for e in eb)
        assert high <= low + self._slack(n_x)


class TestOptimizeParams:
    def test_one_evaluator_scores_the_search_and_its_best_point(self, monkeypatch):
        calls = _spy_on_evaluators(monkeypatch)
        result = optimize_params(100.0, 1e10, ChannelModel())
        distinct = {(mu, px) for mu, px, _ in result.trace}
        # 290 requests evaluated and the other 136 replayed; the best point
        # is kept from the search, not evaluated again
        assert calls == [290]
        assert (result.n_evals, len(result.trace), len(distinct)) == (426, 426, 289)
        # a request reads the score a fresh evaluation gives
        assert all(r == _score(100.0, mu, px, 1e10, ChannelModel())
                   for mu, px, r in result.trace)
        assert result.best == finite_rate(100.0, result.best.mu, result.best.px, 1e10,
                                          ChannelModel())

    def test_replays_do_not_outlive_their_call(self, monkeypatch):
        calls = _spy_on_evaluators(monkeypatch)
        first = optimize_params(100.0, 1e10, ChannelModel())
        second = optimize_params(100.0, 1e10, ChannelModel())
        # a replay table kept across calls would spare the second all its searches
        assert calls == [290, 290]
        assert first.trace == second.trace

    def test_beats_a_coarse_grid(self):
        ch = ChannelModel()
        result = optimize_params(100.0, 1e10, ch)
        grid_best = 0.0
        for mu in np.geomspace(1e-5, 5e-3, 20):
            for px in np.linspace(0.55, 0.95, 20):
                try:
                    p = finite_rate(100.0, mu, px, 1e10, ch)
                except Exception:
                    continue
                grid_best = max(grid_best, p.rate_per_pulse)
        assert result.best.rate_per_pulse >= 0.999 * grid_best
        assert result.n_evals == len(result.trace)

    def test_survives_a_mostly_dead_landscape(self):
        # at this distance most of the search space yields no key at all;
        # the optimizer must still find the narrow viable region
        ch = ChannelModel()
        result = optimize_params(200.0, 1e10, ch)
        assert result.best.rate_per_pulse > 1e-7
        assert result.best.ell > 0

    def test_only_working_point_errors_score_zero(self, monkeypatch):
        def broken_evaluator(*args):
            def evaluate(mu, px):
                raise ZeroDivisionError("not a model-domain error")
            return evaluate

        monkeypatch.setattr(rates, "_rate_evaluator", broken_evaluator)
        with pytest.raises(ZeroDivisionError):
            optimize_params(100.0, 1e10, ChannelModel())

    def test_raises_when_nothing_works(self):
        ch = ChannelModel()
        with pytest.raises(AllAbortError):
            optimize_params(400.0, 1e9, ch)

    # which requests overflow, by their number mod 3, and the first that does
    @pytest.mark.parametrize("overflows_at,first", [(set(), None), ({0}, 3), ({0, 1, 2}, 1)],
                             ids=["none", "every-third", "all"])
    def test_an_overflow_with_no_key_raises_it(self, monkeypatch, overflows_at, first):
        # every point fails; the overflows are interleaved with scored-zero aborts
        requests = []

        def failing_evaluator(*args):
            def evaluate(mu, px):
                requests.append((mu, px))
                if len(requests) % 3 in overflows_at:
                    raise NumericalDegeneracyError(f"overflow {len(requests)}")
                raise ZeroCountError("no Y event")
            return evaluate

        monkeypatch.setattr(rates, "_rate_evaluator", failing_evaluator)
        expected = NumericalDegeneracyError if first else AllAbortError
        with pytest.raises(expected) as info:
            optimize_params(10.0, 1e10, ChannelModel())
        assert str(info.value).startswith("no positive key rate found at L=10.0 km")
        if first:
            assert str(info.value).endswith(f": overflow {first}")

    def test_an_overflow_beside_a_key_scores_zero(self, monkeypatch):
        build = rates._rate_evaluator

        def overflowing_evaluator(*args):
            evaluate = build(*args)

            def partly_overflowing(mu, px):
                if px > 0.95:
                    raise NumericalDegeneracyError("overflow")
                return evaluate(mu, px)
            return partly_overflowing

        monkeypatch.setattr(rates, "_rate_evaluator", overflowing_evaluator)
        result = optimize_params(50.0, 1e10, ChannelModel())
        assert result.best.ell > 0
        assert result.best.px <= 0.95

    def test_huge_pulse_count_is_not_reported_as_no_key(self):
        # the Kato closed form overflows once the trial count passes about 1e77
        with pytest.raises(NumericalDegeneracyError):
            optimize_params(0.0, 1e150, ChannelModel())
        with pytest.raises(NumericalDegeneracyError):
            sweep_distance([0.0, 50.0, 100.0], 1e100, ChannelModel())


class TestSweeps:
    def test_finite_sweep_is_monotone_and_sorted(self):
        ch = ChannelModel()
        lengths = list(range(0, 241, 20))
        points = sweep_distance(lengths, 1e10, ch)
        assert [p.length_km for p in points] == sorted(float(l) for l in lengths)
        rates = [p.rate_per_pulse for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0

    def test_unreachable_distances_turn_into_abort_rows(self):
        ch = ChannelModel()
        points = sweep_distance([50.0, 350.0], 1e9, ch)
        by_length = {p.length_km: p for p in points}
        assert by_length[50.0].rate_per_pulse > 0
        far = by_length[350.0]
        assert far.ell == 0 and far.rate_per_pulse == 0.0 and math.isnan(far.mu)

    def test_asymptotic_sweep_scores_a_failing_intensity_zero(self):
        # at this detector efficiency the gain is so small that the coin
        # imbalance leaves its domain at every intensity the search probes;
        # the distance gives an abort row, not an error
        (point,) = asymptotic_sweep([0.0], ChannelModel(det_efficiency=1e-4))
        assert point.ell == 0 and point.rate_per_pulse == 0.0 and math.isnan(point.mu)

    def test_asymptotic_sweep_monotone(self):
        ch = ChannelModel()
        points = asymptotic_sweep([0.0, 50.0, 100.0, 150.0], ch)
        rates = [p.rate_per_pulse for p in points]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(p.px == 1.0 for p in points)
        assert all(math.isinf(p.n_pulses) for p in points)

    def test_rows_match_the_reference_curve(self, monkeypatch, capsys):
        calls = _spy_on_evaluators(monkeypatch)
        assert main(["sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "260", "--step", "5"]) == 0
        reference = [line for line in SWEEP_REFERENCE.read_text().splitlines()
                     if not line.startswith("#")]
        assert _csv_lines(capsys.readouterr().out) == reference
        # one evaluator per distance; it evaluates 15,828 of the 24,363
        # points requested, best points included
        assert (len(calls), sum(calls)) == (53, 15_828)

    def test_csv_rendering(self, capsys):
        assert main(["sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "50", "--step", "50"]) == 0
        lines = _csv_lines(capsys.readouterr().out)
        assert lines[0] == "L_km,mu,px,rate_per_pulse,ell,Ep_bar,EbX,N"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"


# each rate entry point as a function of (length_km, n_pulses, ec_efficiency);
# asymptotic_sweep takes no pulse count
_ENTRY_POINTS = {
    "finite_rate": lambda L, n, fe: finite_rate(L, 1e-3, 0.9, n, ChannelModel(), fe),
    "optimize_params": lambda L, n, fe: optimize_params(L, n, ChannelModel(), fe),
    "sweep_distance": lambda L, n, fe: sweep_distance([L], n, ChannelModel(), fe),
    "asymptotic_sweep": lambda L, n, fe: asymptotic_sweep([L], ChannelModel(), fe),
}
_FINITE = ("finite_rate", "optimize_params", "sweep_distance")
_BAD_ARGUMENTS = (
    [(entry, "n_pulses", n, "n_pulses") for entry in _FINITE
     for n in (0.0, -1.0, math.nan, math.inf)]
    + [(entry, "ec_efficiency", fe, "error-correction efficiency") for entry in _ENTRY_POINTS
       for fe in (0.5, math.nan, math.inf)]
    + [(entry, "length_km", L, "fiber length") for entry in _ENTRY_POINTS
       for L in (-5.0, math.nan)]
)


@pytest.mark.parametrize("entry,name,value,message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]}") for case in _BAD_ARGUMENTS])
def test_bad_arguments_raise_instead_of_scoring_zero(entry, name, value, message):
    # not an abort row, an AllAbortError, a NaN rate or a rate below Shannon's limit
    args = {"length_km": 0.0, "n_pulses": 1e10, "ec_efficiency": 1.16, name: value}
    with pytest.raises(ParameterError, match=message):
        _ENTRY_POINTS[entry](args["length_km"], args["n_pulses"], args["ec_efficiency"])
