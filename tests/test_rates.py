"""Key rate evaluation, optimization, and distance sweeps."""

import io
import math

import numpy as np
import pytest

from triqss import (
    AllAbortError,
    ChannelModel,
    EpsilonBudget,
    ParameterError,
    ZeroCountError,
    asymptotic_rate,
    asymptotic_sweep,
    finite_rate,
    golden_max,
    optimize_params,
    sweep_distance,
)
from triqss.rates import write_rate_csv


class TestGoldenMax:
    def test_finds_quadratic_peak(self):
        x, f = golden_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.37, abs=1e-6)
        assert f == pytest.approx(0.0, abs=1e-10)

    def test_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            golden_max(lambda x: x, 1.0, 0.0)


class TestAsymptoticRate:
    def test_benchmark_value(self, bench_channel):
        assert asymptotic_rate(9e-4, bench_channel) == pytest.approx(
            5.9644540120401865e-06, rel=1e-12)

    def test_clamped_at_zero_when_noisy(self, bench_channel):
        # intensity so high the imbalance penalty kills the rate entirely
        assert asymptotic_rate(8e-3, bench_channel) == 0.0

    def test_golden_search_agrees_with_grid(self):
        ch = ChannelModel(length_km=100.0)
        grid = np.geomspace(1e-5, 1e-2, 4000)
        rates = [asymptotic_rate(mu, ch) for mu in grid]
        best = int(np.argmax(rates))
        lx, _ = golden_max(lambda l: asymptotic_rate(10.0 ** l, ch), -5.0, -2.0, tol=1e-7)
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
        target = px ** 3 * asymptotic_rate(mu, ch)
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
        assert dead.ell == 0 and dead.abort
        alive = finite_rate(bench_channel.length_km, 9e-4, 0.9, 5e10, bench_channel)
        assert alive.ell > 0 and not alive.abort

    def test_uses_given_length_not_channel_length(self):
        ch = ChannelModel(length_km=999.0)
        point = finite_rate(50.0, 5e-4, 0.9, 1e12, ch)
        assert point.length_km == 50.0
        assert point.rate_per_pulse > 0


class TestOptimizeParams:
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

    def test_raises_when_nothing_works(self):
        ch = ChannelModel()
        with pytest.raises(AllAbortError):
            optimize_params(400.0, 1e9, ch)


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
        assert far.abort and far.rate_per_pulse == 0.0 and math.isnan(far.mu)

    def test_asymptotic_sweep_monotone(self):
        ch = ChannelModel()
        points = asymptotic_sweep([0.0, 50.0, 100.0, 150.0], ch)
        rates = [p.rate_per_pulse for p in points]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(p.px == 1.0 for p in points)
        assert all(math.isinf(p.n_pulses) for p in points)

    def test_csv_rendering(self):
        ch = ChannelModel()
        points = sweep_distance([0.0, 50.0], 1e10, ch)
        buf = io.StringIO()
        write_rate_csv(points, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "L_km,mu,px,rate_per_pulse,ell,Ep_bar,EbX,N"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"
