"""Channel model, gain, error rates, overlap, entropy."""

import math

import numpy as np
import pytest

from triqss import (
    ChannelModel,
    DegenerateGainError,
    ParameterError,
    SourceParams,
    basis_overlap,
    binary_entropy,
    bit_error_x,
    coin_imbalance,
    gain,
    phase_error_from_y,
    transmittance,
)

ETA_30DB = 0.012649110640673518  # 0.4 * 10^(-30/20)


def fock_overlap(mu: float, nmax: int = 40) -> float:
    """Independent overlap oracle: truncated photon-number expansion.

    Builds the number-basis amplitudes of the two relevant coherent states
    (phases 0 and pi/2) explicitly and evaluates the same rotated inner
    product the closed form expresses in trig functions.
    """
    n = np.arange(nmax + 1)
    logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, nmax + 1)))))
    amp = np.exp(-mu / 2.0 + 0.5 * (n * math.log(mu) - logfact))
    ket_x = amp.astype(complex)
    ket_y = amp * (1j ** n)
    return float(((1 - 1j) * np.vdot(ket_x, ket_y)).real)


class TestChannelModel:
    def test_transmittance_30db(self, bench_channel):
        assert transmittance(bench_channel) == pytest.approx(ETA_30DB, rel=1e-12)

    def test_transmittance_100km(self):
        ch = ChannelModel(length_km=100.0)
        assert transmittance(ch) == pytest.approx(0.05848708697826874, rel=1e-12)

    def test_zero_length_gives_detector_efficiency(self):
        assert transmittance(ChannelModel(length_km=0.0)) == 0.4

    @pytest.mark.parametrize("field,value", [
        ("det_efficiency", 1.5),
        ("dark_count", -1e-9),
        ("dark_count", 1.0),
        ("misalignment", 0.6),
        ("length_km", -1.0),
        ("alpha_db_per_km", -0.1),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ParameterError):
            ChannelModel(**{field: value})


class TestSourceParams:
    @pytest.mark.parametrize("mu,px", [(-1e-3, 0.9), (1e-3, 0.0), (1e-3, 1.0)])
    def test_rejects_bad_params(self, mu, px):
        with pytest.raises(ParameterError):
            SourceParams(intensity=mu, px=px)

    def test_dark_only_source_is_legal(self):
        # a blocked laser still produces dark count clicks downstream
        assert SourceParams(intensity=0.0, px=0.9).intensity == 0.0


class TestGain:
    def test_benchmark_value(self):
        assert gain(9e-4, ETA_30DB, 2e-8) == pytest.approx(2.280813858829113e-05, rel=1e-12)

    def test_no_light_no_darks_is_zero(self):
        assert gain(1e-3, 0.0, 0.0) == 0.0

    def test_darks_alone_click(self):
        # both detectors dark-only: (1-pd)(0 + 2 pd)
        pd = 1e-6
        assert gain(1e-9, 0.0, pd) == pytest.approx((1 - pd) * 2 * pd, rel=1e-6)

    def test_tiny_signal_keeps_relative_precision(self):
        # the 1 - exp(-x) difference must not cancel at x ~ 1e-12
        assert gain(1e-9, 5e-4, 0.0) == pytest.approx(-math.expm1(-2 * 1e-9 * 5e-4), rel=1e-12)

    def test_monotone_in_intensity(self):
        values = [gain(mu, 0.1, 2e-8) for mu in np.geomspace(1e-6, 1e-1, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestBitErrorX:
    def test_benchmark_value(self):
        assert bit_error_x(9e-4, ETA_30DB, 2e-8, 0.015) == pytest.approx(
            0.0158505541929692, rel=1e-12)

    def test_reduces_to_misalignment_without_darks(self):
        for mu in (1e-4, 1e-3, 1e-2):
            assert bit_error_x(mu, 0.1, 0.0, 0.015) == pytest.approx(0.015, rel=1e-12)

    def test_never_exceeds_half(self):
        for mu in (1e-5, 1e-3, 1e-1):
            for eta in (1e-4, 1e-2, 0.4):
                for pd in (0.0, 1e-8, 1e-3):
                    for ed in (0.0, 0.1, 0.5):
                        if gain(mu, eta, pd) == 0.0:
                            continue
                        assert bit_error_x(mu, eta, pd, ed) <= 0.5 + 1e-12

    def test_dark_dominated_approaches_half(self):
        # gain almost entirely dark counts: errors are coin flips
        assert bit_error_x(1e-9, 1e-6, 1e-4, 0.0) == pytest.approx(0.5, abs=1e-3)

    def test_degenerate_gain_raises(self):
        with pytest.raises(DegenerateGainError):
            bit_error_x(1e-3, 0.0, 0.0, 0.015)

    @pytest.mark.parametrize("misalignment", [-0.1, 0.6, math.nan])
    def test_rejects_a_misalignment_outside_its_domain(self, misalignment):
        with pytest.raises(ParameterError, match=r"^misalignment must be in \[0, 0.5\]$"):
            bit_error_x(1e-3, 0.1, 0.0, misalignment)


class TestBasisOverlap:
    @pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2, 5e-2])
    def test_matches_fock_oracle(self, mu):
        assert abs(basis_overlap(mu) - fock_overlap(mu)) < 1e-12

    def test_small_intensity_expansion(self):
        # tolerance: cubic-series truncation plus a couple of ulps near 1.0
        for mu in (1e-5, 1e-4, 1e-3):
            series = 1.0 - mu ** 2 + (2.0 / 3.0) * mu ** 3
            assert basis_overlap(mu) == pytest.approx(series, abs=mu ** 4 + 1e-15)

    def test_decreasing_in_intensity(self):
        values = [basis_overlap(mu) for mu in np.linspace(1e-4, 0.5, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCoinImbalance:
    def test_benchmark_value(self):
        # observed sifted gain of the bundled reference table at mu = 9e-4
        assert coin_imbalance(9e-4, 2.1565274431057558e-05) == pytest.approx(
            0.018768926680927285, rel=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(DegenerateGainError):
            coin_imbalance(1e-3, 0.0)

    # a gain is a click probability per pulse; NaN once gave nan, inf a
    # balanced coin and 5.0 an imbalance of 1e-7
    @pytest.mark.parametrize("gain_value", [math.nan, math.inf, 5.0, math.nextafter(1.0, 2.0)])
    def test_gain_above_one_rejected(self, gain_value):
        with pytest.raises(ParameterError, match=r"detection gain must be in \(0, 1\]"):
            coin_imbalance(1e-3, gain_value)

    def test_gain_of_one_accepted(self):
        assert coin_imbalance(1e-3, 1.0) == (1.0 - basis_overlap(1e-3)) / 2.0

    def test_domain_violation_rejected(self):
        # intensity far too large for this gain pushes the imbalance past 1/2
        with pytest.raises(ParameterError):
            coin_imbalance(5e-2, 1e-5)


class TestPhaseError:
    def test_identity_at_zero_imbalance(self):
        for eb in (0.0, 0.01, 0.3, 0.5):
            assert phase_error_from_y(eb, 0.0) == eb

    def test_three_term_closed_form(self):
        t1 = 0.02
        t2 = 4 * 0.02 * 0.98 * (1 - 2 * 0.02)
        t3 = 4 * (1 - 2 * 0.02) * math.sqrt(0.02 * 0.98 * 0.02 * 0.98)
        assert phase_error_from_y(0.02, 0.02) == pytest.approx(t1 + t2 + t3, rel=1e-12)

    def test_angle_addition_closed_form(self):
        # with delta = sin^2(t) and eb = sin^2(f) the three terms collapse to
        # sin^2(2t + f); this also proves the value never exceeds one
        for eb in (0.0, 0.01, 0.13, 0.37, 0.5):
            for delta in np.linspace(0.0, 0.5, 21):
                angle = 2 * math.asin(math.sqrt(delta)) + math.asin(math.sqrt(eb))
                assert phase_error_from_y(eb, delta) == pytest.approx(
                    math.sin(angle) ** 2, abs=1e-12)

    def test_monotone_below_the_peak(self):
        # increasing until 2t + f reaches pi/2, i.e. delta < sin^2(pi/4 - f/2)
        for eb in (0.0, 0.01, 0.1):
            top = math.sin(math.pi / 4 - math.asin(math.sqrt(eb)) / 2) ** 2
            values = [phase_error_from_y(eb, d)
                      for d in np.linspace(0.0, top * 0.999, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_peak_value_is_exactly_one(self):
        # eb = 1/2 and delta = sin^2(pi/8) put the summed angle at pi/2
        delta = math.sin(math.pi / 8) ** 2
        assert phase_error_from_y(0.5, delta) == pytest.approx(1.0, abs=1e-12)
        assert phase_error_from_y(0.5, delta) <= 1.0

    def test_rejects_out_of_domain(self):
        with pytest.raises(ParameterError):
            phase_error_from_y(0.02, 0.6)
        with pytest.raises(ParameterError):
            phase_error_from_y(1.2, 0.1)


class TestBinaryEntropy:
    def test_endpoints_and_center(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_known_values(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, rel=1e-12)

    def test_symmetry(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-14

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.01)
        with pytest.raises(ParameterError):
            binary_entropy(1.01)
