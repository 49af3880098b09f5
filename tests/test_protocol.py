"""Round-level simulation: encodings, sifting, streams, stopping rules."""

import csv
import hashlib
import io
import math
import os
import tracemalloc
from decimal import Decimal, localcontext
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triqss import (
    Basis,
    ChannelModel,
    ParameterError,
    ProtocolAbortError,
    SetTag,
    SetThresholds,
    SiftedTallies,
    SourceParams,
    bit_error_x,
    gain,
    run_protocol,
    transmittance,
    verify_correlation,
)
from triqss import protocol
from triqss.roundtable import CELL_BIT, CELL_QUARTERS, CELL_TAG
from triqss.cli import main

import regenerate_golden as golden
from cumsum_stop import cumsum_stop
from per_round_engine import block_tallies, outcome_thresholds, simulate_block
from per_row_trace import PerRowTraceWriter

LOCAL = ChannelModel(length_km=0.0)  # eta = 0.4, errors at defaults
BRIGHT = SourceParams(intensity=0.01, px=0.8)


def _pinned_trace(name):
    """The sha256 of the trace that the corpus entry ``name`` writes."""
    [trace] = golden.entry(name)["files"].values()
    return trace["sha256"]


def _cell(s_a, s_b, basis_a, basis_b, basis_c):
    return s_a | s_b << 1 | basis_a << 2 | basis_b << 3 | basis_c << 4


def _same_run(a, b):
    assert a.tallies == b.tallies
    assert a.rounds_used == b.rounds_used
    for x, y in ((a.key_a, b.key_a), (a.key_b, b.key_b), (a.key_c, b.key_c)):
        assert np.array_equal(x, y)


class _WriteLog(io.BytesIO):
    """An in-memory file that also keeps the bytes of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)


class _ChunkRule:
    """Detection chunk sizes for tests: ``first`` in chunk 0 and ``rest`` after,
    with the chunks drawn recorded in ``drawn``."""

    def __init__(self, first, rest):
        self.first, self.rest, self.drawn = first, rest, set()

    def __call__(self, k):
        self.drawn.add(k)
        return self.first if k == 0 else self.rest


def _small_chunks(monkeypatch, first, rest):
    """Patch the chunk size rule with small chunks, so a short run crosses chunk edges."""
    rule = _ChunkRule(first, rest)
    monkeypatch.setattr(protocol, "_chunk_detections", rule)
    return rule


def _clean_cells(px=0.8):
    """Outcome distribution of each cell at mu 0.01, eta 0.4, no dark counts, no misalignment."""
    clean = ChannelModel(length_km=0.0, det_efficiency=0.4, dark_count=0.0, misalignment=0.0)
    return protocol._cell_probabilities(SourceParams(intensity=0.01, px=px), clean)


class TestEncodings:
    def test_player_phases(self):
        # X bits go out as phases 0 and pi, Y bits as 3pi/2 and pi/2
        quarters = {(Basis.X, 0): 0, (Basis.X, 1): 2, (Basis.Y, 0): 3, (Basis.Y, 1): 1}
        for cell in range(32):
            q_a, q_b, _ = (q[cell] for q in CELL_QUARTERS)
            assert q_a == quarters[cell >> 2 & 1, cell & 1]
            assert q_b == quarters[cell >> 3 & 1, cell >> 1 & 1]

    def test_dealer_phases(self):
        # the dealer adds 0 (X) or pi/2 (Y) on player b's arm
        for cell in range(32):
            assert CELL_QUARTERS[2][cell] == cell >> 4 & 1

    def test_matched_x_settings_interfere_deterministically(self):
        # same bits -> detector 0 arm gets all the light; opposite bits -> detector 1
        only0, only1, _, _ = _clean_cells()
        for s_a in (0, 1):
            for s_b in (0, 1):
                cell = _cell(s_a, s_b, Basis.X, Basis.X, Basis.X)
                assert CELL_BIT[cell] == s_a ^ s_b
                if s_a == s_b:
                    assert only1[cell] == 0.0 and only0[cell] > 0.0
                else:
                    assert only0[cell] == 0.0 and only1[cell] > 0.0

    def test_y_set_correlations_need_the_flip(self):
        # b and c in Y: direct correlation; a and c in Y: inverted
        _, only1, _, _ = _clean_cells()
        for s_a in (0, 1):
            for s_b in (0, 1):
                cell = _cell(s_a, s_b, Basis.X, Basis.Y, Basis.Y)
                expected = s_a ^ s_b
                assert (only1[cell] == 0.0) == (expected == 0)
                assert CELL_BIT[cell] == expected

                cell = _cell(s_a, s_b, Basis.Y, Basis.X, Basis.Y)
                raw = s_a ^ s_b ^ 1
                assert (only1[cell] == 0.0) == (raw == 0)
                assert CELL_BIT[cell] == raw

    @pytest.mark.parametrize("mu", [1e-4, 1e-2, 0.5])
    def test_each_cell_distribution_sums_to_one(self, mu):
        # over a grid of transmittance, dark count and misalignment; a sifted
        # cell interferes ideally, so its lone clicks are the closed-form gain
        sifted = np.array(CELL_TAG) != SetTag.DISCARD
        for det_efficiency, length_km in ((0.4, 0.0), (1.0, 0.0), (0.4, 100.0)):
            for dark in (0.0, 2e-8, 1e-3):
                for ed in (0.0, 0.015, 0.5):
                    channel = ChannelModel(length_km=length_km, det_efficiency=det_efficiency,
                                           dark_count=dark, misalignment=ed)
                    p = np.array(protocol._cell_probabilities(SourceParams(mu, 0.8), channel))
                    assert p.shape == (4, 32)
                    assert p.sum(axis=0) == pytest.approx(np.ones(32), abs=1e-14)
                    assert p.min() >= 0.0
                    q = gain(mu, transmittance(channel), dark)
                    assert p[0, sifted] + p[1, sifted] == pytest.approx(np.full(12, q),
                                                                        rel=1e-9)


    @pytest.mark.parametrize("dark", [0.0, 2e-8])
    @pytest.mark.parametrize("ed", [0.0, 0.015])
    def test_cells_match_a_decimal_oracle_at_small_mu_eta(self, dark, ed):
        # at mu 1e-6 and 300 km, 2 mu eta is about 2.5e-9: a 1 - exp(-x)
        # form cancels there, and a float phase misses the even split
        channel = ChannelModel(length_km=300.0, dark_count=dark, misalignment=ed)
        got = np.array(protocol._cell_probabilities(SourceParams(1e-6, 0.8), channel))
        # detector 1's share of the light, cos^2 of half the net phase, by
        # net quarter turns
        share = (Decimal(1), Decimal("0.5"), Decimal(0), Decimal("0.5"))
        with localcontext() as ctx:
            ctx.prec = 40
            d, e = Decimal(dark), Decimal(ed)
            loss_db = Decimal(channel.alpha_db_per_km) * Decimal(channel.length_km)
            eta = Decimal(channel.det_efficiency) * Decimal(10) ** (-loss_db / 20)
            x = 2 * Decimal(1e-6) * eta
            for cell in range(32):
                q_a, q_b, q_c = (q[cell] for q in CELL_QUARTERS)
                x1 = x * share[(q_b + q_c - q_a) % 4]
                quiet1, quiet2 = (1 - d) * (-x1).exp(), (1 - d) * (x1 - x).exp()
                lone1, lone2 = (1 - quiet1) * quiet2, (1 - quiet2) * quiet1
                exact = ((1 - e) * lone1 + e * lone2, (1 - e) * lone2 + e * lone1,
                         quiet1 * quiet2, (1 - quiet1) * (1 - quiet2))
                for outcome, p in enumerate(exact):
                    error = abs(Decimal(float(got[outcome, cell])) - p)
                    assert error <= Decimal("1e-13") * p, (cell, outcome, error / p)


class TestRoundTable:
    def test_correct_bit_is_the_lit_port(self):
        # on clean hardware a sifted cell lights exactly the port of its
        # correct bit: s_a ^ s_b, flipped on YAC cells
        clean = ChannelModel(length_km=0.0, dark_count=0.0, misalignment=0.0)
        t0, t1, _ = outcome_thresholds(BRIGHT, clean)
        sifted = 0
        for cell in range(32):
            tag = CELL_TAG[cell]
            if tag == SetTag.DISCARD:
                continue
            sifted += 1
            bit = CELL_BIT[cell]
            assert bit == (cell & 1) ^ (cell >> 1 & 1) ^ (tag == SetTag.YAC_SET)
            p0, p1 = t0[cell], t1[cell] - t0[cell]
            assert (p0 > 0.0, p1 > 0.0) == ((True, False) if bit == 0 else (False, True))
        assert sifted == 12


class TestRunProtocol:
    def test_deterministic_for_fixed_seed(self):
        a = run_protocol(BRIGHT, LOCAL, seed=42, max_rounds=300_000)
        b = run_protocol(BRIGHT, LOCAL, seed=42, max_rounds=300_000)
        _same_run(a, b)

    def test_readme_threshold_run_is_pinned(self, capsys):
        # the README's threshold example, about 3e8 rounds at 30 dB
        assert main(["simulate", "--seed", "7", "--nx", "5000", "--nybc", "50", "--nyac", "50",
                     "--max-rounds", "1e9", "--mu", "9e-4", "--px", "0.9",
                     "--loss-db", "30"]) == 0
        out = capsys.readouterr().out
        assert "rounds_used = 297190741" in out
        assert out == golden.stdout("simulate_threshold_readme")

    def test_spawn_keys_are_the_spawned_children(self):
        # chunk k of branch b is the k-th child spawned one at a time from
        # the b-th of two branches of the seed
        for seed in (0, 7, 2 ** 62 + 3):
            branches = np.random.SeedSequence(seed).spawn(2)
            for b, branch in enumerate(branches):
                for k in range(3):
                    child = branch.spawn(1)[0]
                    direct = np.random.SeedSequence(seed, spawn_key=(b, k))
                    assert np.array_equal(child.generate_state(8), direct.generate_state(8))
                    assert (protocol._generator(seed, b, k).random(4)
                            == np.random.default_rng(child).random(4)).all()

    def test_block_boundaries_do_not_leak(self, tmp_path, monkeypatch):
        # a threshold run replays the start of a longer fixed run across
        # several detection chunks: same keys, same trace rows, and the round
        # index runs on across trace chunks
        rule = _small_chunks(monkeypatch, 300, 500)
        src = SourceParams(intensity=0.5, px=0.7)
        fixed_trace, stop_trace = tmp_path / "fixed.csv", tmp_path / "stop.csv"
        fixed = run_protocol(src, LOCAL, seed=8, max_rounds=30_000, trace_path=fixed_trace)
        stop = run_protocol(src, LOCAL, seed=8, thresholds=(2800, 1, 1),
                            trace_path=stop_trace)
        assert 20_000 < stop.rounds_used < 30_000
        k = stop.key_a.size
        assert 300 + 4 * 500 < k < fixed.key_a.size
        assert rule.drawn >= set(range(6))
        for short, full in ((stop.key_a, fixed.key_a), (stop.key_b, fixed.key_b),
                            (stop.key_c, fixed.key_c)):
            assert np.array_equal(short, full[:k])
        stop_lines = stop_trace.read_bytes().splitlines(keepends=True)
        fixed_lines = fixed_trace.read_bytes().splitlines(keepends=True)
        assert stop_lines == fixed_lines[:stop.rounds_used + 1]
        assert [int(line.split(b",")[0]) for line in stop_lines[1:]] == \
            list(range(stop.rounds_used))

    def test_trace_does_not_change_the_result(self, tmp_path, monkeypatch):
        # small chunks interleave the two streams' draws
        rule = _small_chunks(monkeypatch, 40, 64)
        src = SourceParams(intensity=0.05, px=0.7)
        plain = run_protocol(src, LOCAL, seed=19, thresholds=(300, 20, 20))
        traced = run_protocol(src, LOCAL, seed=19, thresholds=(300, 20, 20),
                              trace_path=tmp_path / "trace.csv")
        _same_run(plain, traced)
        assert rule.drawn >= set(range(3))

    def test_same_child_seed_same_block(self):
        ss = np.random.SeedSequence(123)
        child = ss.spawn(1)[0]
        b1 = simulate_block(BRIGHT, LOCAL, np.random.default_rng(child), 10_000)
        b2 = simulate_block(BRIGHT, LOCAL, np.random.default_rng(child), 10_000)
        for x, y in zip(b1, b2):
            assert np.array_equal(x, y)

    def test_noiseless_run_has_perfect_correlation(self):
        clean = ChannelModel(length_km=0.0, dark_count=0.0, misalignment=0.0)
        run = run_protocol(BRIGHT, clean, seed=7, max_rounds=500_000)
        t = run.tallies
        assert t.n_x > 1000
        assert t.m_x == t.m_ybc == t.m_yac == 0
        assert verify_correlation(run.key_a, run.key_b, run.key_c)
        assert run.key_a.size == t.n_x

    def test_set_fractions_and_qber_track_the_model(self):
        # the sampler and the per-round reference engine both track the model
        n = 1_000_000
        block = simulate_block(BRIGHT, LOCAL, np.random.default_rng(2025), n)
        for t in (run_protocol(BRIGHT, LOCAL, seed=2024, max_rounds=n).tallies,
                  block_tallies(block, n)):
            assert t.rounds == n
            q = gain(BRIGHT.intensity, 0.4, LOCAL.dark_count)
            px = BRIGHT.px
            for observed, frac in (
                (t.n_x, px ** 3 * q),
                (t.n_ybc, px * (1 - px) ** 2 * q),
                (t.n_yac, px * (1 - px) ** 2 * q),
            ):
                sigma = math.sqrt(n * frac * (1 - frac))
                assert abs(observed - n * frac) <= 3 * sigma

            e = bit_error_x(BRIGHT.intensity, 0.4, LOCAL.dark_count, LOCAL.misalignment)
            sigma_err = math.sqrt(t.n_x * e * (1 - e))
            assert abs(t.m_x - t.n_x * e) <= 3 * sigma_err

    def test_threshold_mode_stops_at_the_binding_set(self):
        th = SetThresholds(n_x=2000, n_ybc=10, n_yac=10)
        src = SourceParams(intensity=0.01, px=0.7)
        run = run_protocol(src, LOCAL, seed=31, thresholds=th)
        t = run.tallies
        assert t.n_x >= 2000 and t.n_ybc >= 10 and t.n_yac >= 10
        # exactly one set reaches its target on the stopping round
        assert min(t.n_x - 2000, t.n_ybc - 10, t.n_yac - 10) == 0

        q = gain(src.intensity, 0.4, LOCAL.dark_count)
        expected_rounds = 2000 / (src.px ** 3 * q)
        assert abs(t.rounds - expected_rounds) <= 0.15 * expected_rounds

    def test_round_cap_aborts_with_partial_result(self):
        th = SetThresholds(n_x=10 ** 9, n_ybc=1, n_yac=1)
        with pytest.raises(ProtocolAbortError) as info:
            run_protocol(BRIGHT, LOCAL, seed=11, thresholds=th, max_rounds=50_000)
        partial = info.value.partial
        assert partial is not None
        assert partial.tallies.rounds == 50_000

    def test_unreachable_thresholds_detected_early(self):
        dead = ChannelModel(length_km=0.0, dark_count=0.0, misalignment=0.0)
        source = SourceParams(intensity=0.0, px=0.8)
        with pytest.raises(ProtocolAbortError):
            run_protocol(source, dead, seed=1, thresholds=(1, 1, 1))

    def test_needs_a_stopping_rule(self):
        with pytest.raises(ParameterError):
            run_protocol(BRIGHT, LOCAL, seed=1)

    def test_trace_records_every_round(self, tmp_path):
        path = tmp_path / "trace.csv"
        n = 20_000
        run = run_protocol(SourceParams(intensity=0.5, px=0.7), LOCAL,
                           seed=13, max_rounds=n, trace_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "s_a", "s_b", "basis_a", "basis_b", "basis_c",
                           "outcome", "s_c", "set_tag"]
        body = rows[1:]
        assert len(body) == n
        assert [int(r[0]) for r in body[:3]] == [0, 1, 2]

        tag_counts = {"X": 0, "YBC": 0, "YAC": 0, "DISCARD": 0}
        for r in body:
            tag_counts[r[8]] += 1
            bases = (r[3], r[4], r[5])
            if r[6] == "none":
                assert r[7] == ""
                assert r[8] == "DISCARD"
            else:
                assert r[7] in ("0", "1")
                expected = {("X", "X", "X"): "X", ("X", "Y", "Y"): "YBC",
                            ("Y", "X", "Y"): "YAC"}.get(bases, "DISCARD")
                assert r[8] == expected
        t = run.tallies
        assert tag_counts["X"] == t.n_x
        assert tag_counts["YBC"] == t.n_ybc
        assert tag_counts["YAC"] == t.n_yac

    def test_trace_shows_raw_bits_before_the_flip(self, tmp_path):
        # on clean hardware a YAC round's raw dealer bit is the inverted XOR
        path = tmp_path / "trace.csv"
        clean = ChannelModel(length_km=0.0, dark_count=0.0, misalignment=0.0)
        run_protocol(SourceParams(intensity=0.5, px=0.6), clean,
                     seed=3, max_rounds=30_000, trace_path=path)
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        yac = [r for r in body if r[8] == "YAC" and r[6] in ("zero", "one")]
        x = [r for r in body if r[8] == "X" and r[6] in ("zero", "one")]
        assert yac and x
        for r in yac:
            assert int(r[7]) == int(r[1]) ^ int(r[2]) ^ 1
        for r in x:
            assert int(r[7]) == int(r[1]) ^ int(r[2])


def binomial_two_sided_p(m, n, p):
    """Exact two-sided tail of ``m`` errors in ``n`` trials at error rate ``p``:
    twice the smaller of ``P(X <= m)`` and ``P(X >= m)``, at most 1."""
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(n + 1)

    def pmf(k):
        return math.exp(head - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * log_p + (n - k) * log_q)

    lower = math.fsum(pmf(k) for k in range(m + 1))
    upper = math.fsum(pmf(k) for k in range(m, n + 1))
    return min(1.0, 2.0 * min(lower, upper))


class TestYSetErrors:
    """Simulated ``m_ybc`` and ``m_yac`` against the model's bit error rate.

    Given its detections, a set's error count is binomial at the error rate
    of one lone click, ``bit_error_x``, as long as double clicks (each an
    error with chance 1/2) are negligible.  Seeds, settings and the bound
    (exact two-sided tail at least 1e-3, per seed and pooled) were fixed
    before the first run.
    """

    SEEDS = (311, 312, 313)
    SETTINGS = {
        "0km-ed2pct": (SourceParams(intensity=9e-4, px=0.5),
                       ChannelModel(length_km=0.0, misalignment=0.02), 10 ** 8),
        "30dB": (SourceParams(intensity=9e-4, px=0.7),
                 ChannelModel(length_km=30.0 / 0.167), 5 * 10 ** 9),
    }
    MIN_TAIL = 1e-3

    @pytest.mark.parametrize("setting", list(SETTINGS))
    def test_y_errors_follow_the_model(self, setting):
        source, channel, rounds = self.SETTINGS[setting]
        eta = transmittance(channel)
        e = bit_error_x(source.intensity, eta, channel.dark_count, channel.misalignment)
        # a Y cell sits at relative phase 0 or pi; double clicks there need a
        # dark count on the dark port
        only0, only1, _, double = protocol._cell_probabilities(source, channel)
        y_cells = np.isin(CELL_TAG, (SetTag.YBC_SET, SetTag.YAC_SET))
        assert (double / (only0 + only1))[y_cells].max() < 1e-6
        pooled = {"ybc": [0, 0], "yac": [0, 0]}
        for seed in self.SEEDS:
            t = run_protocol(source, channel, seed=seed, max_rounds=rounds).tallies
            for name, n, m in (("ybc", t.n_ybc, t.m_ybc), ("yac", t.n_yac, t.m_yac)):
                assert n >= 6000, (seed, name, n)
                assert binomial_two_sided_p(m, n, e) >= self.MIN_TAIL, (seed, name, m, n, e)
                pooled[name][0] += n
                pooled[name][1] += m
        for name, (n, m) in pooled.items():
            assert binomial_two_sided_p(m, n, e) >= self.MIN_TAIL, (name, m, n, e)

    def test_tail_of_a_small_case(self):
        # Binomial(4, 1/2): P(X <= 1) = 5/16, so the two-sided tail is 5/8
        assert binomial_two_sided_p(1, 4, 0.5) == pytest.approx(0.625, rel=1e-12)
        assert binomial_two_sided_p(2, 4, 0.5) == 1.0
        assert binomial_two_sided_p(0, 10, 0.5) == pytest.approx(2.0 / 1024, rel=1e-12)


class TestDetectionSampler:
    """The sampler draws only the rounds that click; it must agree with the
    per-round reference engine in ``per_round_engine``."""

    def test_agrees_with_the_per_round_engine(self):
        # bright pulses at 0 km, where double clicks are common; every count
        # of the two engines, pooled over five seeds, agrees within 3 sigma
        # of the two-sample difference
        src = SourceParams(intensity=0.5, px=0.7)
        n = 200_000
        fields = ("n_x", "n_ybc", "n_yac", "m_x", "m_ybc", "m_yac")
        sampled = dict.fromkeys(fields, 0)
        reference = dict.fromkeys(fields, 0)
        for seed in (101, 102, 103, 104, 105):
            run = run_protocol(src, LOCAL, seed=seed, max_rounds=n).tallies
            block = simulate_block(src, LOCAL, np.random.default_rng(seed), n)
            ref = block_tallies(block, n)
            for f in fields:
                sampled[f] += getattr(run, f)
                reference[f] += getattr(ref, f)
        rounds = 5 * n
        for f in fields:
            a, b = sampled[f], reference[f]
            p = (a + b) / (2 * rounds)
            assert a > 0 and b > 0, f
            assert abs(a - b) <= 3 * math.sqrt(2 * rounds * p * (1 - p)), (f, a, b)

    def test_gaps_between_clicks_are_geometric(self, tmp_path, monkeypatch):
        # Kolmogorov-Smirnov test of the gaps between detected trace rows,
        # over several detection chunks, against the Geometric(p_det) CDF
        rule = _small_chunks(monkeypatch, 100, 256)
        src = SourceParams(intensity=0.01, px=0.8)
        path = tmp_path / "trace.csv"
        run_protocol(src, LOCAL, seed=404, max_rounds=300_000, trace_path=path)
        rows = path.read_bytes().splitlines()[1:]
        clicks = np.array([int(r.split(b",")[0]) for r in rows if b",none," not in r])
        gaps = np.diff(clicks, prepend=-1)
        n = gaps.size
        assert n > 100 + 3 * 256 and rule.drawn >= set(range(5))
        p_det = protocol._detection_tables(src, LOCAL).p_det
        values = np.unique(gaps)
        # both step functions are flat between the observed values, so the
        # largest distance sits at an observed value or just below one
        at = np.concatenate([values, values - 1])
        empirical = np.searchsorted(np.sort(gaps), at, side="right") / n
        model = -np.expm1(at * np.log1p(-p_det))
        assert np.abs(empirical - model).max() < 1.63 / math.sqrt(n)

    def test_detection_probability_matches_the_gain(self, bench_channel):
        # p_det counts every click, double clicks included; gain() drops the
        # dark count's share of double clicks, so p_det sits above it by
        # dark * (1 - (1 - dark) exp(-2 mu eta)), a relative 2e-8 here
        for src, channel in ((SourceParams(9e-4, 0.9), bench_channel),
                             (SourceParams(0.5, 0.7), LOCAL), (BRIGHT, LOCAL)):
            p_det = protocol._detection_tables(src, channel).p_det
            q = gain(src.intensity, transmittance(channel), channel.dark_count)
            assert p_det >= q
            assert p_det == pytest.approx(q, rel=1e-6)

    def test_no_clicks_gives_empty_tallies(self, tmp_path):
        dark = ChannelModel(length_km=0.0, dark_count=0.0)
        path = tmp_path / "trace.csv"
        run = run_protocol(SourceParams(intensity=0.0, px=0.8), dark, seed=1,
                           max_rounds=1000, trace_path=path)
        assert run.tallies == SiftedTallies(rounds=1000)
        assert run.key_a.size == 0
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 1000 and all(",none,," in r for r in rows)


class TestDetectionStream:
    """The stream layout: chunk sizes fixed by the chunk index, and gaps by
    inversion of the chunk's first half of uniforms."""

    @staticmethod
    def _gaps(tables, n_chunks, horizon=protocol.MAX_ROUNDS, seed=5):
        chunks = list(islice(protocol._detections(seed, tables, horizon), n_chunks))
        pos, cat = map(np.concatenate, zip(*chunks))
        return np.diff(pos, prepend=-1), cat

    @pytest.mark.parametrize("p_det", [1e-12, None], ids=["1e-12", "bright"])
    def test_chunk_layout(self, p_det):
        # chunk k of size 512, 4096, 4096, ... is one random(2 * size) call:
        # gaps floor(log(1 - u) / log1p(-p_det)) + 1 from the first half,
        # categories by binary search from the second.  At 1e-12 a log(1 - p)
        # denominator moves the gaps by about 1e7 rounds
        tables = protocol._detection_tables(BRIGHT, LOCAL)
        if p_det is not None:
            tables = tables._replace(p_det=p_det)
        chunks = islice(protocol._detections(3, tables, 2 ** 62), 3)
        last = -1
        for k, (pos, cat) in enumerate(chunks):
            size = (512, 4096, 4096)[k]
            assert protocol._chunk_detections(k) == size == pos.size == cat.size
            u = protocol._generator(3, 0, k).random(2 * size)
            gaps = np.floor(np.log(1.0 - u[:size]) / np.log1p(-tables.p_det)) + 1
            assert np.array_equal(np.diff(pos, prepend=last), gaps)
            assert np.array_equal(cat, np.searchsorted(tables.cdf, u[size:], side="right"))
            last = pos[-1]

    @pytest.mark.parametrize("p_det", [1e-6, 1e-3, 0.5])
    def test_gaps_are_geometric(self, p_det):
        # Kolmogorov-Smirnov test of three chunks of gaps against the
        # Geometric(p_det) CDF, as in TestDetectionSampler
        tables = protocol._detection_tables(BRIGHT, LOCAL)._replace(p_det=p_det)
        gaps, _ = self._gaps(tables, 3)
        n = gaps.size
        assert n == 512 + 2 * 4096
        values = np.unique(gaps)
        at = np.concatenate([values, values - 1])
        empirical = np.searchsorted(np.sort(gaps), at, side="right") / n
        model = -np.expm1(at * np.log1p(-p_det))
        assert np.abs(empirical - model).max() < 1.63 / math.sqrt(n)

    def test_gaps_and_categories_are_independent(self):
        # a detection's category must not follow from the gap before it; the
        # correlation of independent samples has a standard deviation of
        # 1 / sqrt(n)
        gaps, cat = self._gaps(protocol._detection_tables(BRIGHT, LOCAL), 3)
        assert abs(np.corrcoef(gaps, cat)[0, 1]) < 4 / math.sqrt(gaps.size)

    def test_every_round_clicks_at_p_det_one(self):
        tables = protocol._detection_tables(BRIGHT, LOCAL)._replace(p_det=1.0)
        with np.errstate(all="raise"):
            gaps, _ = self._gaps(tables, 2)
        assert gaps.size == 512 + 4096 and (gaps == 1).all()

    @pytest.mark.parametrize("p_det", [1e-300, 1e-310, 5e-324])
    def test_tiny_p_det_clips_without_overflow(self, p_det):
        # gaps clip to MAX_ROUNDS + 1 without a numpy warning, subnormal
        # p_det included, and none falls inside a run
        tables = protocol._detection_tables(BRIGHT, LOCAL)._replace(p_det=p_det)
        with np.errstate(all="raise"):
            gaps, _ = self._gaps(tables, 2, horizon=np.iinfo(np.int64).max)
            kept = [pos.size for pos, _ in protocol._detections(5, tables, protocol.MAX_ROUNDS)]
        assert kept == [0]
        assert gaps.size == 512 + 4096 and (gaps == protocol.MAX_ROUNDS + 1).all()


# the largest variate a generator returns
_BELOW_ONE = np.nextafter(1.0, 0.0)
_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-300, 2e-300), st.floats(0.0, 1.0))


def _edge_variates(cdf):
    """Variates on, just below and just above every bin edge and category edge."""
    edges = np.concatenate([protocol._BIN_EDGES, cdf])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                        [0.0, _BELOW_ONE]])
    return u[u < 1.0]


class TestGuideDraw:
    """The guide table draw must equal the binary search it replaces."""

    @staticmethod
    def _check(cdf, guide, u):
        assert np.array_equal(protocol._draw(cdf, guide, u), np.searchsorted(cdf, u, side="right"))

    def _check_weights(self, weights, extra=()):
        cdf = protocol._cdf(np.asarray(weights, dtype=float))
        u = np.concatenate([_edge_variates(cdf), np.asarray(extra, dtype=float)])
        self._check(cdf, protocol._guide(cdf), u)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4), st.lists(_WEIGHT, min_size=1, max_size=140), st.integers(0, 4),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    def test_matches_the_binary_search(self, lead, weights, trail, extra):
        # zero weights, leading and trailing ones included, and weights near 1e-300
        self._check_weights([0.0] * lead + weights + [0.0] * trail, extra)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 68), min_size=1, max_size=60))
    def test_category_edges_on_bin_edges(self, counts):
        # whole weights summing to 4096 put every cdf entry on a multiple of 1/4096
        weights = counts + [4096 - sum(counts)]
        cdf = protocol._cdf(np.array(weights, dtype=float))
        assert np.array_equal(cdf * 4096, np.cumsum(weights))
        self._check_weights(weights)

    def test_all_zero_weights(self):
        cdf = protocol._cdf(np.zeros(32))
        assert (cdf == 1.0).all()
        self._check_weights(np.zeros(32))
        assert not protocol._draw(cdf, protocol._guide(cdf), _edge_variates(cdf)).any()

    def test_round_table_distributions(self, bench_channel):
        rng = np.random.default_rng(17)
        for src, channel in ((SourceParams(9e-4, 0.9), bench_channel),
                             (SourceParams(0.5, 0.7), LOCAL), (BRIGHT, LOCAL)):
            tables = protocol._detection_tables(src, channel)
            for cdf, guide in ((tables.cdf, tables.guide), (tables.none_cdf, tables.none_guide)):
                self._check(cdf, guide, np.concatenate([_edge_variates(cdf), rng.random(100_000)]))


class TestStopRule:
    """The stop search against the running-count rule in ``cumsum_stop``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60),
           st.tuples(*[st.integers(0, 6)] * 3), st.tuples(*[st.integers(1, 12)] * 3))
    def test_matches_the_running_counts(self, tags, before, targets):
        # a run stops in the chunk that meets its thresholds, so no chunk
        # starts with all of them met
        assume(any(b < t for b, t in zip(before, targets)))
        n = np.array([*before, 0], np.int64)
        tag = np.array(tags, np.uint8)
        th = SetThresholds(*targets)
        assert protocol._stop(n, tag, th) == cumsum_stop(n, tag, th)

    def test_met_on_the_first_detection(self):
        # X and YBC are met before the chunk; its first detection completes YAC
        n = np.array([5, 1, 0, 0], np.int64)
        tag = np.array([SetTag.YAC_SET, SetTag.X_SET, SetTag.DISCARD], np.uint8)
        th = SetThresholds(5, 1, 1)
        assert protocol._stop(n, tag, th) == cumsum_stop(n, tag, th) == 1

    @pytest.mark.parametrize("stop", [39, 40, 40 + 64 - 1, 40 + 3 * 64 + 10],
                             ids=["last-of-first-chunk", "first-of-chunk", "chunk-edge",
                                  "several-chunks"])
    def test_runs_match_the_running_counts(self, monkeypatch, stop):
        # thresholds met exactly at detection ``stop`` of a 40-detection first
        # chunk and 64-detection chunks after it, on both sides of the edge
        # where the size changes; the first seed whose detection there falls
        # in a sifted set
        rule = _small_chunks(monkeypatch, 40, 64)
        last_chunk = 0 if stop < 40 else 1 + (stop - 40) // 64
        src = SourceParams(0.05, 0.5)
        tables = protocol._detection_tables(src, LOCAL)
        for seed in range(100):
            chunks = islice(protocol._detections(seed, tables, protocol.MAX_ROUNDS),
                            last_chunk + 1)
            pos, cat = map(np.concatenate, zip(*chunks))
            tags = protocol._CAT_TAG[cat[:stop + 1]]
            counts = [int((tags == t).sum()) for t in range(3)]
            if tags[-1] != SetTag.DISCARD and min(counts) >= 1:
                break
        th = SetThresholds(*counts)
        rule.drawn.clear()
        run = run_protocol(src, LOCAL, seed=seed, thresholds=th)
        assert run.rounds_used == pos[stop] + 1
        # the run draws every chunk up to the one the stop falls in, and no more
        assert rule.drawn == set(range(last_chunk + 1))
        monkeypatch.setattr(protocol, "_stop", cumsum_stop)
        _same_run(run, run_protocol(src, LOCAL, seed=seed, thresholds=th))

    def test_benchmark_runs_match_the_running_counts(self, monkeypatch, bench_channel):
        src, th = SourceParams(9e-4, 0.9), SetThresholds(200, 1, 1)
        runs = [run_protocol(src, bench_channel, seed=seed, thresholds=th) for seed in range(30)]
        monkeypatch.setattr(protocol, "_stop", cumsum_stop)
        for seed, run in enumerate(runs):
            _same_run(run, run_protocol(src, bench_channel, seed=seed, thresholds=th))


class TestDetectionTables:
    def test_cached_arrays_are_read_only(self):
        tables = protocol._detection_tables(BRIGHT, LOCAL)
        for a in (tables.cdf, tables.none_cdf, tables.guide, tables.none_guide):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_equal_parameters_give_an_identical_run(self, bench_channel):
        src, twin = SourceParams(9e-4, 0.9), SourceParams(9e-4, 0.9)
        assert src == twin and src is not twin
        first = run_protocol(src, bench_channel, seed=3, thresholds=(200, 1, 1))
        assert protocol._detection_tables(src, bench_channel) is \
            protocol._detection_tables(twin, ChannelModel(length_km=bench_channel.length_km))
        _same_run(first, run_protocol(twin, bench_channel, seed=3, thresholds=(200, 1, 1)))
        protocol._detection_tables.cache_clear()
        _same_run(first, run_protocol(twin, bench_channel, seed=3, thresholds=(200, 1, 1)))

    def test_set_gains_are_the_sampled_set_rates(self):
        # a round joins each set independently, so a set's detections over a
        # fixed number of rounds are binomial at its set gain.  At a dark
        # count of 0.2 double clicks are common, and a gain of lone clicks
        # only (0.1099 for the X set) falls far below the sampled 0.124.
        # Seed, rounds and the bound (exact two-sided tail at least 1e-3)
        # were fixed before the first run
        src = SourceParams(intensity=9e-4, px=0.7)
        channel = ChannelModel(length_km=0.0, dark_count=0.2)
        rounds = 10 ** 5
        t = run_protocol(src, channel, seed=5, max_rounds=rounds).tallies
        set_gains = protocol._detection_tables(src, channel).set_gains
        for n, p in zip((t.n_x, t.n_ybc, t.n_yac), set_gains, strict=True):
            assert binomial_two_sided_p(n, rounds, p) >= 1e-3, (n, rounds, p)


class TestTraceBytes:
    """The byte writer against the per-row reference it replaced."""

    @staticmethod
    def _both(tmp_path, monkeypatch, source, **kwargs):
        files = []
        for writer in (protocol._TraceWriter, PerRowTraceWriter):
            monkeypatch.setattr(protocol, "_TraceWriter", writer)
            path = tmp_path / f"{writer.__name__}.csv"
            files.append((run_protocol(source, LOCAL, trace_path=path, **kwargs),
                          path.read_bytes()))
        (run, data), (ref_run, ref_data) = files
        assert run.tallies == ref_run.tallies
        return run, data, ref_data

    def test_index_gains_a_digit(self, tmp_path, monkeypatch):
        run, data, ref = self._both(tmp_path, monkeypatch, SourceParams(0.05, 0.7),
                                    seed=5, max_rounds=100_003)
        assert data == ref
        assert b"\r\n9999," in data and b"\r\n10000," in data
        assert b"\r\n99999," in data and data.splitlines()[-1].startswith(b"100002,")

    def test_blocks_and_chunks_split_mid_run(self, tmp_path, monkeypatch):
        # detection chunks of 40 and then 64 cut the 10,000-row windows
        rule = _small_chunks(monkeypatch, 40, 64)
        _, data, ref = self._both(tmp_path, monkeypatch, SourceParams(0.05, 0.7),
                                  seed=6, max_rounds=12_345)
        assert data == ref
        assert rule.drawn >= set(range(3))

    def test_threshold_run_stops_early(self, tmp_path, monkeypatch):
        run, data, ref = self._both(tmp_path, monkeypatch, SourceParams(0.05, 0.7),
                                    seed=8, thresholds=(300, 20, 20))
        assert data == ref
        assert len(data.splitlines()) == run.rounds_used + 1

    def test_dense_detections(self, tmp_path, monkeypatch):
        # mu 0.3 at 0 km: every outcome and both bits of a double click
        _, data, ref = self._both(tmp_path, monkeypatch, SourceParams(0.3, 0.7),
                                  seed=9, max_rounds=30_000)
        assert data == ref
        for text in (b",zero,0,", b",one,1,", b",none,,", b",double,0,", b",double,1,"):
            assert text in data

    def test_splice_edges_against_the_per_row_writer(self):
        # detections where the index gains a digit or a 10,000-row window
        # starts or ends, on two adjacent rows, on every row of 12,500-14,999
        # and on no row of 15,000-17,499, handed over in pieces as
        # run_protocol does.  Clicks past the cap are cut into equal shares:
        # the cap plus one from 1,000 on, cut between 5,000 and 5,001;
        # exactly the cap in 20,000-29,999, with no click on the row after
        # it; the cap plus one in 30,001-39,999
        cap = protocol._TRACE_CHUNK_CLICKS
        share = -(-(cap + 1) // 2)
        step = 9_999 // (cap + 1)
        pos = np.array([0, 9, 10, 99, 100, 999] + list(range(1000, 999 + share))
                       + [5000, 5001] + list(range(10_000 - (cap - share), 10_001))
                       + list(range(12_500, 15_000)) + [19_999]
                       + list(range(20_000, 30_000, step))[:cap]
                       + list(range(30_001, 40_000, step))[:cap + 1] + [99_999, 100_000])
        cat = np.arange(pos.size) % 128
        tables = protocol._detection_tables(SourceParams(0.05, 0.7), LOCAL)
        files = []
        for writer in (protocol._TraceWriter, PerRowTraceWriter):
            fh = _WriteLog()
            trace = writer(fh, protocol._generator(4, 1, 0), tables.none_cdf, tables.none_guide)
            for end in (11, 10_001, 15_000, 17_500, 100_001, 100_003):
                lo, hi = np.searchsorted(pos, (trace.written, end))
                trace.write(end, pos[lo:hi], cat[lo:hi])
            files.append(fh)
        data, ref = (fh.getvalue() for fh in files)
        assert data == ref
        rows = data.splitlines()[1:]
        assert len(rows) == 100_003
        for i in pos.tolist():
            assert rows[i].startswith(b"%d," % i) and b",none," not in rows[i]
        assert all(b",none," in row for row in rows[15_000:17_500])
        # each chunk: its first and last row, and its clicks
        chunks = []
        for chunk in files[0].writes[1:]:
            lines = chunk.splitlines()
            first, last = (int(line.split(b",", 1)[0]) for line in (lines[0], lines[-1]))
            assert len(str(first)) == len(str(last)) and first // 10_000 == last // 10_000
            chunks.append((first, last, sum(b",none," not in line for line in lines)))
            assert chunks[-1][2] <= cap
        assert chunks[:8] == [(0, 9, 2), (10, 10, 1), (11, 99, 1), (100, 999, 2),
                              (1000, 5000, share), (5001, 9999, cap + 1 - share),
                              (10_000, 10_000, 1), (10_001, chunks[7][1], chunks[7][2])]
        clicks = [c[2] for c in chunks if 10_001 <= c[0] < 15_000]
        assert len(clicks) == -(-2500 // cap) and max(clicks) - min(clicks) <= 1
        assert (20_000, 29_999, cap) in chunks
        cut = 30_001 + share * step
        assert (30_000, cut - 1, share) in chunks and (cut, 39_999, cap + 1 - share) in chunks

    @staticmethod
    def _chunk_starts(monkeypatch):
        """The first row of each trace chunk built from now on."""
        starts = []
        block = protocol._no_click_block
        monkeypatch.setattr(protocol, "_no_click_block",
                            lambda start, cells: starts.append(start) or block(start, cells))
        return starts

    def test_readme_trace_is_pinned(self, tmp_path, monkeypatch):
        # one chunk per index width below 10,000 rows and one per 10,000-row
        # window, the window of the last click cut where its rows are handed over
        starts = self._chunk_starts(monkeypatch)
        path = tmp_path / "rounds.csv"
        assert main(["simulate", "--seed", "7", "--rounds", "20000", "--length-km", "0",
                     "--trace", str(path)]) == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == _pinned_trace("simulate_trace_readme"))
        assert len(starts) == 6 and starts[:5] == [0, 10, 100, 1000, 10_000]

    @pytest.mark.parametrize("args, name, chunks", [
        (["--seed", "9", "--rounds", "30000", "--length-km", "0", "--mu", "0.3", "--px", "0.7"],
         "simulate_trace_dense", 17),
        (["--seed", "7", "--rounds", "1000000", "--mu", "9e-4", "--px", "0.9", "--loss-db", "30"],
         "simulate_trace_30dB", 104),
    ], ids=["dense", "30dB"])
    def test_trace_is_pinned(self, tmp_path, monkeypatch, args, name, chunks):
        starts = self._chunk_starts(monkeypatch)
        path = tmp_path / "rounds.csv"
        assert main(["simulate", *args, "--trace", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _pinned_trace(name)
        assert len(starts) == chunks

    def test_memory_is_bounded_by_the_chunk(self):
        # a writer holding a whole million-round block of keys and uniforms
        # peaked at about 25 MB; at mu 0.3 about a fifth of the rounds click,
        # and the splice holds a piece per detection of a chunk
        for source in (SourceParams(9e-4, 0.9), SourceParams(0.3, 0.7)):
            tracemalloc.start()
            try:
                run_protocol(source, LOCAL, seed=5, max_rounds=2_000_000, trace_path=os.devnull)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, source


class TestValidation:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(ParameterError):
            SetThresholds(n_x=0, n_ybc=1, n_yac=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5])
    def test_thresholds_must_be_whole_and_finite(self, bad):
        # NaN once passed and, with no max_rounds, set a 2**50-round cap
        for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(ParameterError):
                SetThresholds(*args)
        with pytest.raises(ParameterError):
            run_protocol(BRIGHT, LOCAL, seed=1, thresholds=(bad, 1, 1))

    @pytest.mark.parametrize("big", [protocol.MAX_ROUNDS + 1, 10 ** 400],
                             ids=["MAX_ROUNDS+1", "10**400"])
    def test_thresholds_have_a_ceiling(self, big):
        # a detection takes a round, so no run of at most MAX_ROUNDS meets
        # these; 10**400 once overflowed the default round cap
        for args in ((big, 1, 1), (1, big, 1), (1, 1, big)):
            with pytest.raises(ParameterError, match="MAX_ROUNDS"):
                SetThresholds(*args)
        # max_rounds keeps a run that accepted the threshold short
        with pytest.raises(ParameterError, match="MAX_ROUNDS"):
            run_protocol(BRIGHT, LOCAL, seed=1, thresholds=(big, 1, 1), max_rounds=100)
        assert SetThresholds(protocol.MAX_ROUNDS, 1, 1).n_x == protocol.MAX_ROUNDS

    def test_whole_float_thresholds_become_ints(self):
        th = SetThresholds(5.0, 1, np.int64(2))
        assert th == SetThresholds(5, 1, 2)
        assert all(type(v) is int for v in (th.n_x, th.n_ybc, th.n_yac))

    @pytest.mark.parametrize("bad", [-1, 2.5, math.nan])
    def test_seed_is_checked_before_the_trace_opens(self, tmp_path, bad):
        path = tmp_path / "trace.csv"
        with pytest.raises(ParameterError):
            run_protocol(BRIGHT, LOCAL, seed=bad, max_rounds=100, trace_path=path)
        assert not path.exists()

    def test_key_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            verify_correlation([0, 1], [0], [1])

    def test_max_rounds_must_be_positive(self):
        for bad in (0, -5):
            with pytest.raises(ParameterError):
                run_protocol(BRIGHT, LOCAL, seed=1, max_rounds=bad)

    def test_max_rounds_has_a_ceiling(self):
        with pytest.raises(ParameterError):
            run_protocol(BRIGHT, LOCAL, seed=1, max_rounds=protocol.MAX_ROUNDS + 1)

    def test_max_rounds_must_be_whole(self, tmp_path):
        with pytest.raises(ParameterError):
            run_protocol(BRIGHT, LOCAL, seed=1, max_rounds=2.5)
        run = run_protocol(BRIGHT, LOCAL, seed=1, max_rounds=1e4,
                           trace_path=tmp_path / "trace.csv")
        assert run.rounds_used == 10_000 and isinstance(run.rounds_used, int)

    def test_default_round_cap_is_clipped_to_the_ceiling(self):
        # 400 dB: the expected requirement is ~1e46 rounds; the run gives up
        # at MAX_ROUNDS instead of overflowing or running on
        hopeless = ChannelModel(length_km=400.0 / 0.167, dark_count=0.0)
        with pytest.raises(ProtocolAbortError) as info:
            run_protocol(SourceParams(9e-4, 0.9), hopeless, seed=1, thresholds=(1, 1, 1))
        assert info.value.partial.rounds_used == protocol.MAX_ROUNDS
