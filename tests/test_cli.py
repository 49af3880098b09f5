"""End-to-end command line tests, run in process through ``main(argv)``."""

import argparse
import errno
import io
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from triqss import cli, errors
from triqss.errors import (
    AllAbortError,
    CountTableError,
    DegenerateGainError,
    NumericalDegeneracyError,
    ParameterError,
    ProtocolAbortError,
    ZeroCountError,
)
from triqss.protocol import MAX_ROUNDS
from triqss.cli import (
    EXIT_ABORT,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_GRID_POINTS,
    _parser,
    build_parser,
    distance_grid,
    main,
)
from triqss.report import MAX_INPUT_BYTES, parse_kv

import regenerate_golden as golden
from conftest import FIXTURES

TABLE_A9 = str(FIXTURES / "tableIIIa_mu9e-4.csv")
ALL_TABLES = sorted(str(p) for p in FIXTURES.glob("tableIII*_mu*.csv"))
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

MODEL_FLAGS = ("--mu", "--px", "--loss-db", "--length-km", "--alpha", "--eta-d", "--dark",
               "--ed", "--fe", "--eps-c", "--eps-pa", "--eps-a", "--eps-b")
# flags a subcommand never reads, each with the rest of a valid command line
UNREAD_FLAGS = (
    [("simulate", flag) for flag in ("--fe", "--eps-c", "--eps-pa", "--eps-a", "--eps-b")]
    + [("sweep", flag) for flag in ("--mu", "--px", "--length-km", "--loss-db")]
    + [("kato", flag) for flag in MODEL_FLAGS]
)
VALID_ARGS = {
    "simulate": ["--seed", "1", "--rounds", "10"],
    "sweep": ["--N", "inf", "--Lmax", "0"],
    "analyze": [TABLE_A9],
    "kato": ["--k", "1e6", "--lam", "5e5"],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKato:
    def test_reference_bound(self, capsys):
        code, out, _ = run(capsys, ["kato", "--k", "1e6", "--lam", "5e5"])
        assert code == EXIT_OK
        assert out.startswith("# triqss kato")
        body = parse_kv(out)
        assert float(body["deviation"]) == pytest.approx(3393.0354890388417, rel=1e-9)
        assert float(body["azuma_deviation"]) == pytest.approx(6786.140424415112, rel=1e-9)
        assert float(body["closed_numeric_rel_diff"]) < 1e-6

    def test_lower_direction(self, capsys):
        code, out, _ = run(capsys, ["kato", "--k", "1e6", "--lam", "5e5", "--dir", "lower"])
        assert code == EXIT_OK
        body = parse_kv(out)
        assert body["direction"] == "lower"
        assert float(body["bound"]) < 5e5

    def test_missing_required_flag_exits_3(self, capsys):
        code, out, err = run(capsys, ["kato", "--k", "1e6"])
        assert code == EXIT_INPUT
        assert "--lam" in err
        assert out == ""

    def test_settings_from_a_config_file(self, capsys, tmp_path):
        # k and lam were config keys that could never take effect, as the
        # parser required both flags
        cfg = tmp_path / "kato.cfg"
        cfg.write_text("k = 1e6\nlam = 5e5\neps = 1e-10\n")
        code, out, _ = run(capsys, ["kato", "--config", str(cfg)])
        assert code == EXIT_OK
        assert out == (ROOT / "bench" / "refs" / "kato_k1e6.txt").read_text()

    def test_value_missing_after_the_config_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "kato.cfg"
        cfg.write_text("k = 1e6\n")
        code, out, err = run(capsys, ["kato", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert "--lam" in err
        assert out == ""

    def test_deviation_at_the_upper_end_is_zero(self, capsys):
        # b + a(2 lam / k - 1) cancels at lam = k; its rounding residue once
        # printed as -1.110223025e-16
        code, out, _ = run(capsys, ["kato", "--k", "1", "--lam", "1"])
        assert code == EXIT_OK
        assert parse_kv(out)["deviation"] == "0"

    def test_self_check_of_two_zero_deviations(self, capsys):
        # closed 0 against a numeric 3e-15 once printed a relative difference
        # of 1: the denominator had no floor on the deviation scale
        code, out, _ = run(capsys, ["kato", "--k", "1", "--lam", "1"])
        assert code == EXIT_OK
        assert float(parse_kv(out)["closed_numeric_rel_diff"]) < 1e-6

    @pytest.mark.parametrize("k", [1e20, 1e40])
    def test_zero_coeff_deviation_at_a_large_sum(self, capsys, k):
        # the deviation is sqrt(k ln(1/eps) / 2), with no loss to cancellation
        # against lam = k
        code, out, _ = run(capsys, ["kato", "--k", str(k), "--lam", str(k)])
        assert code == EXIT_OK
        expected = math.sqrt(0.5 * k * math.log(1e10))
        assert float(parse_kv(out)["zero_coeff_deviation"]) == pytest.approx(expected, rel=1e-9)

    def test_tiny_eps_gives_finite_deviations(self, capsys):
        # 1 / eps overflows below about 5.6e-309
        code, out, _ = run(capsys, ["kato", "--k", "1e6", "--lam", "5e5", "--eps", "1e-320"])
        assert code == EXIT_OK
        body = parse_kv(out)
        expected = math.sqrt(0.5 * 1e6 * -math.log(1e-320))
        assert float(body["zero_coeff_deviation"]) == pytest.approx(expected, rel=1e-9)
        assert float(body["azuma_deviation"]) == pytest.approx(2.0 * expected, rel=1e-9)

    @pytest.mark.parametrize("k", ["1e77", "1e200"])
    def test_overflowing_trial_count_exits_4(self, capsys, k):
        code, out, err = run(capsys, ["kato", "--k", k, "--lam", str(float(k) / 2)])
        assert code == EXIT_NUMERIC
        assert "numerical degeneracy" in err
        assert out == ""

    def test_fewer_than_one_trial_exits_3(self, capsys):
        # below one trial the closed form's constraint once had no real b,
        # and the command exited 4
        code, out, err = run(capsys, ["kato", "--k", "1e-20", "--lam", "0"])
        assert code == EXIT_INPUT
        assert "at least 1" in err and out == ""

    def test_largest_decade_without_overflow(self, capsys):
        code, out, _ = run(capsys, ["kato", "--k", "1e76", "--lam", "5e75"])
        assert code == EXIT_OK
        body = parse_kv(out)
        for name in ("a", "b", "deviation", "bound"):
            assert math.isfinite(float(body[name]))


class TestAnalyze:
    def test_single_table_report(self, capsys):
        code, out, _ = run(capsys, ["analyze", TABLE_A9])
        assert code == EXIT_OK
        body = parse_kv(out)
        assert body["n_x"] == "787407"
        assert body["ell"] == "199428"
        assert float(body["mu"]) == 9e-4
        assert float(body["px"]) == 0.9
        assert float(body["rate_per_second"]) == pytest.approx(398.856, rel=1e-6)
        assert "# config.gain_mode = observed" in out

    def test_multi_table_summary_sorted(self, capsys):
        code, out, _ = run(capsys, ["analyze", *ALL_TABLES])
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "px,mu,EbX_pct,EbY_pct,Ep_pct,n_x,n_y,skr_per_pulse,skr_per_s"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 9
        assert [r[0] for r in rows] == ["0.9"] * 3 + ["0.8"] * 3 + ["0.7"] * 3
        for block in (rows[0:3], rows[3:6], rows[6:9]):
            mus = [float(r[1]) for r in block]
            assert mus == sorted(mus, reverse=True)
        assert rows[0][2] == "0.95" and rows[0][3] == "1.16"

    def test_huge_ec_efficiency_aborts(self, capsys):
        # the leak overflows to inf: no key, reported as an abort
        code, out, _ = run(capsys, ["analyze", TABLE_A9, "--fe", "1e308"])
        assert code == EXIT_ABORT
        body = parse_kv(out)
        assert (body["lambda_ec"], body["ell"], body["abort"]) == ("inf", "0", "true")

    def test_filename_inference_failure_exits_3(self, capsys, tmp_path):
        anon = tmp_path / "counts.csv"
        anon.write_text((FIXTURES / "tableIIIa_mu9e-4.csv").read_text())
        code, _, err = run(capsys, ["analyze", str(anon)])
        assert code == EXIT_INPUT
        assert "cannot infer" in err

    def test_name_whose_intensity_is_no_number_exits_3(self, capsys, tmp_path):
        # "mu1.2.3" matches the name pattern, but float() rejects it
        named = tmp_path / "mu1.2.3_tableIIIa.csv"
        named.write_text((FIXTURES / "tableIIIa_mu9e-4.csv").read_text())
        code, out, err = run(capsys, ["analyze", str(named)])
        assert code == EXIT_INPUT
        assert "cannot infer mu/px" in err and out == ""

    def test_explicit_params_rescue_anonymous_file(self, capsys, tmp_path):
        anon = tmp_path / "counts.csv"
        anon.write_text((FIXTURES / "tableIIIa_mu9e-4.csv").read_text())
        code, out, _ = run(capsys, ["analyze", str(anon), "--mu", "9e-4", "--px", "0.9"])
        assert code == EXIT_OK
        assert parse_kv(out)["ell"] == "199428"

    @pytest.mark.parametrize("directory", ["mu8e-4", "emu2"])
    def test_directory_name_does_not_set_the_intensity(self, capsys, tmp_path, directory):
        # only the file name is read: mu8e-4/ once rated the table at
        # mu = 8e-4, and emu2/ at mu = 2
        copy = tmp_path / directory / "tableIIIa_mu9e-4.csv"
        copy.parent.mkdir()
        copy.write_text((FIXTURES / "tableIIIa_mu9e-4.csv").read_text())
        code, out, _ = run(capsys, ["analyze", str(copy)])
        assert code == EXIT_OK
        body = parse_kv(out)
        assert float(body["mu"]) == 9e-4 and float(body["px"]) == 0.9
        assert body["rate_per_pulse"] == "3.98856e-06"

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", str(tmp_path / "missing.csv"),
                                    "--mu", "9e-4", "--px", "0.9"])
        assert code == EXIT_INPUT
        assert "input error" in err

    @pytest.mark.parametrize("n_pulses", ["10", "0", "nan", "inf", "1e400"])
    def test_impossible_pulse_count_exits_3(self, capsys, n_pulses):
        # at N = 10 the sifted counts imply a gain above one per pulse
        code, out, err = run(capsys, ["analyze", TABLE_A9, "--N", n_pulses])
        assert code == EXIT_INPUT
        assert "input error" in err
        assert out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--px", "0"), ("--px", "1"), ("--px", "2"), ("--px", "-1"), ("--px", "nan"),
        ("--mu", "inf"), ("--mu", "nan"), ("--mu", "0"),
    ])
    def test_source_setting_outside_its_domain_exits_3(self, capsys, flag, value):
        code, out, err = run(capsys, ["analyze", TABLE_A9, flag, value])
        assert code == EXIT_INPUT
        assert err.startswith("input error:")
        assert out == ""

    @pytest.mark.parametrize("rep_rate", ["nan", "0", "-1"])
    def test_bad_rep_rate_exits_3(self, capsys, rep_rate):
        code, out, err = run(capsys, ["analyze", TABLE_A9, "--rep-rate", rep_rate])
        assert code == EXIT_INPUT
        assert "rep_rate" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--length-km", "--loss-db", "--alpha", "--dark"])
    def test_channel_flag_without_analytic_gain_exits_3(self, capsys, flag):
        code, out, err = run(capsys, ["analyze", TABLE_A9, flag, "10"])
        assert code == EXIT_INPUT
        assert f"{flag} needs --analytic-gain" in err
        assert out == ""

    def test_channel_config_key_without_analytic_gain_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dark = 0.1\n")
        code, out, err = run(capsys, ["analyze", TABLE_A9, "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert "--dark needs --analytic-gain" in err
        assert out == ""

    def test_nan_ec_efficiency_exits_3(self, capsys):
        code, out, err = run(capsys, ["analyze", TABLE_A9, "--fe", "nan"])
        assert code == EXIT_INPUT
        assert "--fe" in err
        assert out == ""

    def test_infinite_pulse_count_with_analytic_gain_exits_3(self, capsys):
        # the model gain does not read N, which would leave a zero rate
        code, out, err = run(capsys, ["analyze", TABLE_A9, "--N", "inf", "--analytic-gain"])
        assert code == EXIT_INPUT
        assert "--N" in err
        assert out == ""

    @pytest.mark.parametrize("flag,eps", [
        ("--eps-pa", "1e-200"), ("--eps-c", "1e-320"), ("--eps-b", "1e-320"),
    ])
    def test_tiny_failure_probability_gives_a_key(self, capsys, flag, eps):
        # eps_pa ** 2 underflows, 2 / eps_c and 1 / eps_b overflow
        code, out, _ = run(capsys, ["analyze", TABLE_A9, flag, eps])
        assert code == EXIT_OK
        body = parse_kv(out)
        assert float(body["ep_bar"]) < 0.5
        assert 0 < int(body["ell"]) < 199428

    def test_degenerate_analytic_gain_exits_4(self, capsys):
        code, _, err = run(capsys, ["analyze", TABLE_A9, "--analytic-gain",
                                    "--mu", "0", "--dark", "0"])
        assert code == EXIT_NUMERIC
        assert err == f"numerical degeneracy: {TABLE_A9}: zero detection gain: " \
                      "coin imbalance undefined\n"

    def test_table_error_names_the_table(self, capsys, tmp_path):
        # the second of two tables repeats a triple
        bad = tmp_path / "tableIIIb_mu8e-4.csv"
        bad.write_text("phase_a,phase_b,phase_c,spd1,spd2\n0,0,0,1,2\n0,0,0,3,4\n")
        code, out, err = run(capsys, ["analyze", TABLE_A9, str(bad)])
        assert code == EXIT_INPUT
        assert err == (f"input error: {bad}: line 3: duplicate phase triple (0, 0, 0), "
                       "first seen on line 2\n")
        assert out == ""

    def test_rating_error_names_the_table(self, capsys):
        # the sifted counts imply a gain above one per pulse
        code, out, err = run(capsys, ["analyze", *ALL_TABLES, "--N", "10"])
        assert code == EXIT_INPUT
        assert err.startswith(f"input error: {ALL_TABLES[0]}: sifted counts imply a gain")
        assert out == ""

    @pytest.mark.parametrize("body,line,byte", [
        (b"0,0,0,1\xff,2\n", 2, "ff"),
        (b"0,0,0,1,2\r\n2,2,0,3,4\r\n\xfe", 4, "fe"),
        (b"0,0,0,1,2\r2,2,0,3,4\r0,2,\x80", 4, "80"),
    ], ids=["in-a-field", "after-crlf-lines", "after-cr-lines"])
    def test_table_that_is_not_utf8_exits_3(self, capsys, tmp_path, body, line, byte):
        bad = tmp_path / "tableIIIa_mu9e-4.csv"
        bad.write_bytes(b"phase_a,phase_b,phase_c,spd1,spd2\n" + body)
        code, out, err = run(capsys, ["analyze", str(bad)])
        assert code == EXIT_INPUT
        assert err == f"input error: {bad}: line {line}: not valid UTF-8: byte 0x{byte}\n"
        assert out == ""

    def test_table_with_a_byte_order_mark(self, capsys, tmp_path):
        # the mark stayed on the header, which then did not match
        table = tmp_path / "tableIIIa_mu9e-4.csv"
        table.write_bytes(b"\xef\xbb\xbf" + Path(TABLE_A9).read_bytes())
        code, out, _ = run(capsys, ["analyze", str(table)])
        assert (code, out.replace(str(table), TABLE_A9)) == run(capsys, ["analyze", TABLE_A9])[:2]


class TestSimulate:
    BASE = ["simulate", "--seed", "7", "--rounds", "20000", "--mu", "0.01", "--px", "0.7"]

    def test_fixed_rounds_report(self, capsys):
        code, out, _ = run(capsys, self.BASE)
        assert code == EXIT_OK
        body = parse_kv(out)
        assert body["rounds_used"] == "20000"
        assert body["abort"] == "false"
        assert int(body["n_x"]) > 0
        assert int(body["key_bits"]) == int(body["n_x"])

    def test_missing_seed_exits_3(self, capsys):
        code, _, err = run(capsys, ["simulate", "--rounds", "100"])
        assert code == EXIT_INPUT
        assert "--seed" in err

    def test_missing_stopping_rule_exits_3(self, capsys):
        code, _, err = run(capsys, ["simulate", "--seed", "1"])
        assert code == EXIT_INPUT
        assert "--rounds" in err

    def test_partial_thresholds_exit_3(self, capsys):
        code, _, err = run(capsys, ["simulate", "--seed", "1", "--nx", "10"])
        assert code == EXIT_INPUT
        assert "--nybc" in err

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "one.txt"
        out2 = tmp_path / "two.txt"
        assert run(capsys, self.BASE + ["--out", str(out1)])[0] == EXIT_OK
        assert run(capsys, self.BASE + ["--out", str(out2)])[0] == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_nan_intensity_exits_3(self, capsys):
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--rounds", "100",
                                      "--mu", "nan"])
        assert code == EXIT_INPUT
        assert "intensity" in err
        assert out == ""

    @pytest.mark.parametrize("rounds", ["-5", "0", "nan", "inf", "2.5"])
    def test_bad_round_count_exits_3(self, capsys, rounds):
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--rounds", rounds])
        assert code == EXIT_INPUT
        assert "input error" in err
        assert out == ""

    def test_fractional_round_cap_exits_3(self, capsys):
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--nx", "1", "--nybc", "1",
                                      "--nyac", "1", "--max-rounds", "2.5"])
        assert code == EXIT_INPUT
        assert "max_rounds" in err
        assert out == ""

    def test_negative_seed_exits_3(self, capsys):
        code, out, err = run(capsys, ["simulate", "--seed", "-1", "--rounds", "10"])
        assert code == EXIT_INPUT
        assert "seed" in err
        assert out == ""

    def test_round_count_above_the_ceiling_exits_3(self, capsys):
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--rounds", "1e30"])
        assert code == EXIT_INPUT
        assert "max_rounds" in err
        assert out == ""

    @pytest.mark.parametrize("nx", [str(MAX_ROUNDS + 1), "1" + "0" * 400],
                             ids=["MAX_ROUNDS+1", "10**400"])
    def test_threshold_above_the_ceiling_exits_3(self, capsys, nx):
        # --max-rounds keeps a run that accepted the threshold short
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--nx", nx,
                                      "--nybc", "1", "--nyac", "1", "--max-rounds", "100"])
        assert code == EXIT_INPUT
        assert "MAX_ROUNDS" in err
        assert out == ""

    def test_hopeless_threshold_run_aborts_at_the_ceiling(self, capsys):
        # 400 dB without dark counts: the default cap is clipped to
        # MAX_ROUNDS and the sampler reaches it at once
        start = time.monotonic()
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--dark", "0",
                                      "--loss-db", "400", "--nx", "1", "--nybc", "1",
                                      "--nyac", "1"])
        assert code == EXIT_ABORT
        assert parse_kv(out)["rounds_used"] == str(MAX_ROUNDS)
        assert time.monotonic() - start < 10.0

    def test_no_light_gives_zero_tallies(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--seed", "1", "--mu", "0", "--dark", "0",
                                    "--rounds", "1e6"])
        assert code == EXIT_OK
        body = parse_kv(out)
        assert body["rounds_used"] == "1000000"
        assert body["n_x"] == body["n_ybc"] == body["n_yac"] == body["key_bits"] == "0"

    def test_unreachable_thresholds_exit_2(self, capsys):
        # no light and no dark counts: the run aborts before its first round,
        # with no partial run to report
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--mu", "0", "--dark", "0",
                                      "--nx", "1", "--nybc", "1", "--nyac", "1"])
        assert code == EXIT_ABORT
        assert err.startswith("abort: thresholds unreachable")
        assert out == ""

    def test_zero_attenuation_with_loss_exits_3(self, capsys):
        code, out, err = run(capsys, ["simulate", "--seed", "1", "--rounds", "10",
                                      "--loss-db", "10", "--alpha", "0"])
        assert code == EXIT_INPUT
        assert "--alpha" in err
        assert out == ""

    def test_rounds_with_max_rounds_exits_3(self, capsys):
        # the run once used --rounds as the cap and echoed the unread --max-rounds
        code, out, err = run(capsys, ["simulate", "--seed", "7", "--rounds", "100000",
                                      "--nx", "5", "--nybc", "1", "--nyac", "1",
                                      "--max-rounds", "1e9", "--length-km", "0"])
        assert code == EXIT_INPUT
        assert "--rounds" in err and "--max-rounds" in err
        assert out == ""

    def test_repeated_config_key_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 9e-4\n# the later value once won silently\nmu = 5e-4\n")
        code, out, err = run(capsys, ["simulate", "--config", str(cfg), "--seed", "2",
                                      "--rounds", "1000"])
        assert code == EXIT_INPUT
        assert "'mu'" in err and "line 1" in err and "line 3" in err
        assert out == ""

    def test_unconvertible_config_value_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = abc\n")
        code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--seed", "2",
                                    "--rounds", "1000"])
        assert code == EXIT_INPUT
        assert "mu" in err and "abc" in err

    def test_threshold_abort_exits_2_with_partial(self, capsys, tmp_path):
        out = tmp_path / "aborted.txt"
        code, _, err = run(capsys, [
            "simulate", "--seed", "3", "--mu", "0.01", "--px", "0.7",
            "--nx", "100000", "--nybc", "1", "--nyac", "1",
            "--max-rounds", "5000", "--out", str(out),
        ])
        assert code == EXIT_ABORT
        assert "abort" in err
        body = parse_kv(out.read_text())
        assert body["abort"] == "true"
        assert body["rounds_used"] == "5000"

    def test_trace_file_written(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, [
            "simulate", "--seed", "5", "--rounds", "500", "--mu", "0.01",
            "--px", "0.7", "--trace", str(trace),
        ])
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "i,s_a,s_b,basis_a,basis_b,basis_c,outcome,s_c,set_tag"
        assert len(lines) == 501

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1e-3\npx = 0.85\n")
        base = ["simulate", "--config", str(cfg), "--seed", "2", "--rounds", "1000"]

        code, out, _ = run(capsys, base + ["--mu", "2e-3"])
        assert code == EXIT_OK
        assert "# config.mu = 0.002" in out      # flag beats config
        assert "# config.px = 0.85" in out       # config beats default

        code, out, _ = run(capsys, base)
        assert code == EXIT_OK
        assert "# config.mu = 0.001" in out      # config beats default


class TestSweep:
    def test_small_finite_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", "--N", "1e10", "--Lmin", "0",
                                  "--Lmax", "20", "--step", "10", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# triqss sweep"
        data = [l for l in lines if l and not l.startswith("#")]
        assert data[0] == "L_km,mu,px,rate_per_pulse,ell,Ep_bar,EbX,N"
        assert [row.split(",")[0] for row in data[1:]] == ["0", "10", "20"]
        rates = [float(row.split(",")[3]) for row in data[1:]]
        assert rates[0] >= rates[1] >= rates[2] > 0

    def test_asymptotic_sweep(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--N", "inf", "--Lmin", "0",
                                    "--Lmax", "10", "--step", "5"])
        assert code == EXIT_OK
        data = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data) == 4
        # the asymptotic curve has no finite pulse budget and full sifting
        assert data[1].split(",")[2] == "1"
        assert data[1].split(",")[7] == "inf"

    # --N is a plain float: what float() reads as infinite gives the
    # asymptotic curve, and no other word does
    @pytest.mark.parametrize("spelling", ["inf", "Infinity", " INF "])
    def test_infinite_pulse_count_spellings_give_the_asymptotic_curve(self, capsys, spelling):
        argv = ["sweep", "--Lmin", "0", "--Lmax", "10", "--step", "5", "--N"]
        expected = run(capsys, [*argv, "inf"])
        assert run(capsys, [*argv, spelling]) == expected
        assert expected[0] == EXIT_OK
        # full sifting and no pulse budget: the asymptotic curve's rows
        assert expected[1].splitlines()[-1].split(",")[2::5] == ["1", "inf"]

    @pytest.mark.parametrize("word", ["asymptotic", "infinite"])
    def test_a_word_is_not_a_pulse_count_flag(self, capsys, word):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", word])
        assert info.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"argument --N: invalid float value: '{word}'" in captured.err
        assert captured.out == ""

    def test_a_word_is_not_a_pulse_count_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_pulses = asymptotic\n")
        code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert err == "input error: config value n_pulses = 'asymptotic' is not valid\n"
        assert out == ""

    def test_asymptotic_abort_rows_claim_no_key(self, capsys):
        # past the asymptotic cutoff there is no key, so no key length and no
        # working point, as in a finite abort row
        code, out, _ = run(capsys, ["sweep", "--N", "inf", "--Lmin", "250",
                                    "--Lmax", "280", "--step", "10"])
        assert code == EXIT_OK
        rows = {row.split(",")[0]: row for row in out.splitlines()
                if row and not row.startswith("#")}
        assert rows["260"].split(",")[4] == "inf"
        assert rows["270"] == "270,nan,nan,0,0,nan,nan,inf"
        assert rows["280"] == "280,nan,nan,0,0,nan,nan,inf"

    @pytest.mark.parametrize("flag", ["--eps-c", "--eps-pa", "--eps-a", "--eps-b"])
    def test_asymptotic_sweep_rejects_a_failure_budget_flag(self, capsys, flag):
        # the asymptotic curve never reads the budget
        code, out, err = run(capsys, ["sweep", "--N", "inf", flag, "0.3"])
        assert code == EXIT_INPUT
        assert err == f"input error: {flag} not read by sweep --N inf\n"
        assert out == ""

    def test_asymptotic_sweep_rejects_a_failure_budget_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_pulses = inf\neps_a = 0.3\neps_b = 1e-9\n")
        code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert err == "input error: --eps-a, --eps-b not read by sweep --N inf\n"
        assert out == ""

    def test_bad_grid_exits_3(self, capsys):
        code, _, err = run(capsys, ["sweep", "--Lmin", "10", "--Lmax", "0"])
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_nan_pulse_count_exits_3(self, capsys):
        code, out, err = run(capsys, ["sweep", "--N", "nan"])
        assert code == EXIT_INPUT
        assert "--N" in err
        assert out == ""

    # rejected before any rate is computed: below 1 the finite curve would
    # read as all aborts and the asymptotic one as positive
    @pytest.mark.parametrize("n_pulses,fe", [("1e10", "0.5"), ("inf", "0.5"), ("1e10", "nan")])
    def test_bad_ec_efficiency_exits_3(self, capsys, n_pulses, fe):
        code, out, err = run(capsys, ["sweep", "--N", n_pulses, "--fe", fe])
        assert code == EXIT_INPUT
        assert "--fe" in err
        assert out == ""

    @pytest.mark.parametrize("flag,eps", [("--eps-pa", "1e-200"), ("--eps-b", "1e-320")])
    def test_tiny_failure_probability_gives_positive_rates(self, capsys, flag, eps):
        code, out, _ = run(capsys, ["sweep", "--N", "1e10", "--Lmax", "5", flag, eps])
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [row[0] for row in rows] == ["0", "5"]
        assert all(int(row[4]) > 0 for row in rows)

    # the Kato closed form overflows once a trial count passes about 1e77;
    # past that no point yields a key, which is not a protocol abort
    @pytest.mark.parametrize("n_pulses", ["1e90", "1e100"])
    def test_pulse_count_past_the_overflow_exits_4(self, capsys, n_pulses):
        code, out, err = run(capsys, ["sweep", "--N", n_pulses,
                                      "--Lmin", "0", "--Lmax", "100", "--step", "50"])
        assert code == EXIT_NUMERIC
        assert err.startswith("numerical degeneracy: no positive key rate found")
        assert out == ""

    # the output recorded in the corpus before overflows with no key raised
    @pytest.mark.parametrize("n_pulses", ["1e77", "1e80"])
    def test_pulse_count_below_the_overflow_keeps_its_rows(self, capsys, n_pulses):
        code, out, _ = run(capsys, ["sweep", "--N", n_pulses,
                                    "--Lmin", "0", "--Lmax", "100", "--step", "50"])
        assert code == EXIT_OK
        assert out == golden.stdout(f"sweep_N{n_pulses}_L0_100_step50")

    # the leak overflows to inf at every working point: no key anywhere
    def test_huge_ec_efficiency_gives_abort_rows(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "0",
                                    "--step", "1", "--fe", "1e308"])
        assert code == EXIT_OK
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows == ["0,nan,nan,0,0,nan,nan,1e+10"]

    # with no dark counts and no misalignment H(EbX) = 0, so there is no
    # leak to overflow: any efficiency gives the key of --fe 1
    def test_huge_ec_efficiency_without_bit_errors_keeps_the_key(self, capsys):
        sweep = ["sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "0", "--step", "1",
                 "--dark", "0", "--ed", "0", "--fe"]
        rows = []
        for fe in ("1", "1e308"):
            code, out, _ = run(capsys, sweep + [fe])
            assert code == EXIT_OK
            rows.append([l for l in out.splitlines() if not l.startswith("#")])
        assert rows[1] == rows[0]
        assert int(rows[0][1].split(",")[4]) > 0

    # (0.3 - 0) / 0.1 and (0.7 - 0.1) / 0.2 round to just below 3
    @pytest.mark.parametrize("n_pulses", ["inf", "1e10"])
    @pytest.mark.parametrize("lmin,lmax,step,lengths", [
        ("0", "0.3", "0.1", ["0", "0.1", "0.2", "0.3"]),
        ("0.1", "0.7", "0.2", ["0.1", "0.3", "0.5", "0.7"]),
    ])
    def test_grid_ends_on_lmax(self, capsys, n_pulses, lmin, lmax, step, lengths):
        code, out, _ = run(capsys, ["sweep", "--N", n_pulses, "--Lmin", lmin,
                                    "--Lmax", lmax, "--step", step])
        assert code == EXIT_OK
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert [row.split(",")[0] for row in rows] == lengths

    def test_length_is_not_echoed(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--N", "inf", "--Lmax", "0"])
        assert code == EXIT_OK
        assert "length_km" not in out


class TestDistanceGrid:
    @pytest.mark.parametrize("lmin,lmax,step", [
        (0.0, 260.0, 1e-12),                       # 2.6e14 points
        (0.0, 1e300, 1e-300),                      # span overflows to inf
        (0.0, float(MAX_GRID_POINTS), 1.0),        # one point over the cap
        (0.0, float("nan"), 5.0),
        (0.0, 260.0, float("inf")),
        (10.0, 0.0, 5.0),
        (0.0, 10.0, 0.0),
        (-10.0, 0.0, 5.0),
    ])
    def test_rejected_before_allocating(self, lmin, lmax, step):
        with pytest.raises(ParameterError):
            distance_grid(lmin, lmax, step)

    def test_largest_grid_allowed(self):
        assert len(distance_grid(0.0, float(MAX_GRID_POINTS - 1), 1.0)) == MAX_GRID_POINTS

    @pytest.mark.parametrize("lmin,lmax,step,count,last", [
        (0.0, 0.3, 0.1, 4, 0.3),
        (0.1, 0.7, 0.2, 4, 0.7),
        (0.0, 260.0, 5.0, 53, 260.0),
        (0.0, 0.0, 1.0, 1, 0.0),
        (0.0, 0.35, 0.1, 4, 0.3),
    ])
    def test_span_a_rounding_error_short_reaches_lmax(self, lmin, lmax, step, count, last):
        grid = distance_grid(lmin, lmax, step)
        assert len(grid) == count
        assert grid[-1] == pytest.approx(last, rel=1e-12)

    def test_span_a_rounding_error_short_of_the_cap_is_rejected(self):
        # counted with the tolerance it is one point over the cap
        with pytest.raises(ParameterError):
            distance_grid(0.0, MAX_GRID_POINTS - 1e-6, 1.0)


# usage errors, and a subcommand's help, with the exit code of each
USAGE_EXITS = [
    (["kato", "--k", "1", "--lam", "1", "extra"], EXIT_INPUT),
    (["kato", "--k", "1e6"], EXIT_INPUT),
    (["kato", "--k", "1", "--lam", "1", "--dir", "sideways"], EXIT_INPUT),
    (["analyze"], EXIT_INPUT),
    (["simulate", "--seed", "x"], EXIT_INPUT),
    (["sweep", "--mu", "1"], EXIT_INPUT),
    (["kato", "-h"], EXIT_OK),
]


class TestParserBehavior:
    @pytest.mark.parametrize("argv,code", USAGE_EXITS)
    def test_usage_errors_and_help(self, capsys, argv, code):
        first = _main_outcome(argv, capsys)
        assert first[0] == code
        # help goes to stdout alone, a usage error to stderr alone
        assert [bool(text) for text in first[1:]] == ([True, False] if code == EXIT_OK
                                                      else [False, True])
        assert _main_outcome(argv, capsys) == first

    def test_unknown_subcommand_exits_3(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_INPUT

    def test_no_subcommand_exits_3(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_INPUT

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_exits_3(self, command, flag):
        with pytest.raises(SystemExit) as info:
            main([command, *VALID_ARGS[command], flag, "1"])
        assert info.value.code == EXIT_INPUT

    def test_help_to_a_given_file(self, capsys):
        buf = io.StringIO()
        build_parser().print_help(buf)
        assert buf.getvalue().startswith("usage: triqss")
        assert capsys.readouterr() == ("", "")


# the documented exit code and stderr prefix of each error type
ERROR_EXITS = {
    ParameterError: (EXIT_INPUT, "input error: "),
    CountTableError: (EXIT_INPUT, "input error: "),
    DegenerateGainError: (EXIT_NUMERIC, "numerical degeneracy: "),
    NumericalDegeneracyError: (EXIT_NUMERIC, "numerical degeneracy: "),
    ProtocolAbortError: (EXIT_ABORT, "abort: "),
    ZeroCountError: (EXIT_ABORT, "abort: "),
    AllAbortError: (EXIT_ABORT, "abort: "),
}


class TestErrorExits:
    def test_every_error_type_has_an_exit(self):
        defined = {value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, errors.QssError)}
        assert set(ERROR_EXITS) == defined - {errors.QssError}

    @pytest.mark.parametrize("error", list(ERROR_EXITS), ids=lambda error: error.__name__)
    def test_error_from_a_subcommand(self, capsys, monkeypatch, error):
        def fail(ns):
            raise error("raised by the subcommand")

        monkeypatch.setitem(cli._COMMANDS, "kato", fail)
        code, out, err = run(capsys, ["kato"])
        assert (code, out) == (ERROR_EXITS[error][0], "")
        assert err == ERROR_EXITS[error][1] + "raised by the subcommand\n"

    def test_os_error_without_a_file_name_is_raised(self, monkeypatch):
        # only a path the user named is an input error
        def fail(ns):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setitem(cli._COMMANDS, "kato", fail)
        with pytest.raises(OSError) as info:
            main(["kato"])
        assert info.value.filename is None


class TestInputFiles:
    # each opens the directory through a different user-named path
    @pytest.mark.parametrize("argv", [
        ["kato", "--k", "1e6", "--lam", "5e5", "--out", "{dir}"],
        ["simulate", "--seed", "1", "--rounds", "100", "--trace", "{dir}"],
        ["sweep", "--N", "1e10", "--config", "{dir}"],
    ], ids=["kato-out", "simulate-trace", "sweep-config"])
    def test_directory_for_a_file_exits_3(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, [arg.format(dir=tmp_path) for arg in argv])
        assert code == EXIT_INPUT
        assert str(tmp_path) in err
        assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "7", "--rounds", "20000", "--length-km", "0",
         "--trace", "/dev/full"],
        ["kato", "--k", "1e6", "--lam", "5e5", "--out", "/dev/full"],
        ["sweep", "--N", "inf", "--Lmax", "0", "--out", "/dev/full"],
        ["analyze", TABLE_A9, "--out", "/dev/full"],
    ], ids=["simulate-trace", "kato-out", "sweep-out", "analyze-out"])
    def test_failed_write_exits_3_with_its_path(self, capsys, argv):
        # a failed write or close raises an OSError without a file name,
        # which once ended in a traceback and exit 1
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert err.startswith("input error: ") and "'/dev/full'" in err
        assert out == ""

    # a misspelt key, a setting of another subcommand, and an output path
    @pytest.mark.parametrize("command,key", [
        ("simulate", "dakr"), ("sweep", "mu"), ("sweep", "length_km"),
        ("kato", "dark"), ("simulate", "out"),
    ])
    def test_config_key_that_is_not_a_setting_exits_3(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.5\n")
        code, out, err = run(capsys, [command, "--config", str(cfg), *VALID_ARGS[command]])
        assert code == EXIT_INPUT
        assert key in err
        assert out == ""

    def test_config_that_is_not_utf8_exits_3_with_its_line(self, capsys, tmp_path):
        # it was read in the locale encoding and died in a UnicodeDecodeError
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"k = 1e6\r\n# \xff\nlam = 5e5\n")
        code, out, err = run(capsys, ["kato", "--k", "1e6", "--lam", "5e5",
                                      "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert err == "input error: config line 2: not valid UTF-8: byte 0xff\n"
        assert out == ""

    def test_config_line_with_an_empty_key_is_rejected(self):
        with pytest.raises(ParameterError, match=r"^config line 2: empty key$"):
            parse_kv("k = 1\n= 1\n")

    def test_config_with_a_byte_order_mark(self, capsys, tmp_path):
        # the mark stayed on the first key, which was then not a setting
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfk = 1e6\nlam = 5e5\neps = 1e-10\n")
        code, out, _ = run(capsys, ["kato", "--config", str(cfg)])
        assert code == EXIT_OK
        assert out == (ROOT / "bench" / "refs" / "kato_k1e6.txt").read_text()

    def test_config_at_the_input_limit_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "long.cfg"
        head = b"k = 1e6\nlam = 5e5\neps = 1e-10\n#"
        cfg.write_bytes(head + b" " * (MAX_INPUT_BYTES - len(head)))
        code, out, _ = run(capsys, ["kato", "--config", str(cfg)])
        assert code == EXIT_OK
        assert out == (ROOT / "bench" / "refs" / "kato_k1e6.txt").read_text()

    @pytest.mark.parametrize("argv", [
        ["kato", "--k", "1e6", "--lam", "5e5", "--config", "{path}"],
        ["analyze", "{path}", "--mu", "9e-4", "--px", "0.9"],
    ], ids=["config", "table"])
    def test_file_past_the_input_limit_exits_3(self, capsys, tmp_path, argv):
        # a file was read whole, so /dev/zero allocated until the process died
        big = tmp_path / "big.txt"
        big.write_bytes(b"#" * (MAX_INPUT_BYTES + 1))
        code, out, err = run(capsys, [arg.format(path=big) for arg in argv])
        assert code == EXIT_INPUT
        assert err.startswith("input error: ") and f"{MAX_INPUT_BYTES}-byte input limit" in err
        assert err.endswith(f"'{big}'\n")
        assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "/dev/zero"],
        ["analyze", "/dev/zero", "--mu", "9e-4", "--px", "0.9"],
    ], ids=["config", "table"])
    def test_endless_file_exits_3(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert err.startswith("input error: ") and err.endswith("'/dev/zero'\n")
        assert out == ""

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    @pytest.mark.parametrize("line3,message", [
        (b"not a pair", "expected 'key = value', got 'not a pair'"),
        (b"# \xff", "not valid UTF-8: byte 0xff"),
    ], ids=["bad-pair", "bad-byte"])
    def test_config_lines_are_numbered_alike_by_both_readers(self, capsys, tmp_path,
                                                             sep, line3, message):
        # only \n, \r\n and \r end a line; the pair parser also broke at sep
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"eps = 1e-10{sep}\r\nk = 1e6\r".encode() + line3 + b"\n")
        code, out, err = run(capsys, ["kato", "--lam", "5e5", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert err == f"input error: config line 3: {message}\n"
        assert out == ""

    def test_config_keys_are_flag_dests(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        # a finite N, as the asymptotic curve rejects eps_a
        cfg.write_text("n_pulses = 1e10\nlmax = 10\neta_d = 0.5\neps_a = 1e-9\n")
        code, out, _ = run(capsys, ["sweep", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "# config.eta_d = 0.5" in out
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert [row.split(",")[0] for row in rows] == ["L_km", "0", "5", "10"]


def _readme_commands():
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("triqss ")]


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_commands())
    def test_command_parses(self, argv):
        build_parser().parse_args(argv)

    def test_lists_the_flags_of_each_subcommand(self):
        listed = dict(re.findall(r"^- `(\w+)`: (.+)$", README.read_text(), re.MULTILINE))
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert sorted(listed) == sorted(commands)
        for name, sub in commands.items():
            flags = {opt for action in sub._actions for opt in action.option_strings}
            assert set(re.findall(r"--?[\w-]+", listed[name])) == flags - {"-h", "--help"}


def _subcommand_parsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """``main`` builds one parser per process; reuse changes no output."""

    @pytest.mark.parametrize("argv", [[name, *args] for name, args in VALID_ARGS.items()]
                             + [argv for argv, _ in USAGE_EXITS])
    def test_second_call_repeats_the_first(self, capsys, argv):
        _parser.cache_clear()
        first = _main_outcome(argv, capsys)
        assert _parser.cache_info().currsize == 1
        assert _main_outcome(argv, capsys) == first
        assert _parser.cache_info().hits == 1

    def test_one_parser_per_subcommand_and_one_for_the_rest(self, capsys):
        # one parser serves every subcommand and every other argv
        _parser.cache_clear()
        for i in range(20):
            assert _main_outcome([f"word{i}"], capsys)[0] == EXIT_INPUT
        for argv in ([], ["-h"], *([name, *args] for name, args in VALID_ARGS.items()),
                     *(argv for argv, _ in USAGE_EXITS)):
            _main_outcome(argv, capsys)
        assert _parser.cache_info().currsize == 1

    @pytest.mark.parametrize("command", [None, *VALID_ARGS])
    def test_reused_help_follows_the_terminal_width(self, monkeypatch, capsys, command):
        argv = [command, "--help"] if command else ["--help"]

        def fresh_help():
            parser = build_parser()
            return (_subcommand_parsers(parser)[command] if command else parser).format_help()

        _parser.cache_clear()
        helps = []
        for columns in ("60", "100"):
            monkeypatch.setenv("COLUMNS", columns)
            helps.append(fresh_help())
            assert _main_outcome(argv, capsys) == (EXIT_OK, helps[-1], "")
        assert _parser.cache_info().misses == 1
        if command:   # the top-level help fits in 60 columns
            assert helps[0] != helps[1]


class TestModuleEntryPoint:
    """``python -m triqss.cli``, which reaches ``main`` with ``argv=None``."""

    @staticmethod
    def cli(*args, stdout=subprocess.PIPE, close_stdout=False):
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "triqss.cli", *args]
        if close_stdout:
            # a shell closes fd 1 before Python starts
            command = ["sh", "-c", '"$@" >&-', "sh", *command]
        return subprocess.run(command, cwd=ROOT, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, timeout=60)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [
        ("kato", "--k", "1e6", "--lam", "5e5"),
        ("sweep", "--N", "inf", "--Lmax", "300", "--step", "0.5"),
        ("-h",),
        ("sweep", "-h"),
    ], ids=["flush-fails", "write-fails", "help", "sweep-help"])
    def test_failed_write_to_stdout_exits_3(self, args):
        # a short report fails when flushed, a long one (42 kB) when written;
        # the flush at exit once ended in a traceback and exit 1
        with open("/dev/full", "w") as full:
            proc = self.cli(*args, stdout=full)
        assert proc.returncode == EXIT_INPUT
        err = proc.stderr.decode()
        assert err.startswith("input error: ") and err.endswith("'<stdout>'\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("kato", "--k", "1e6", "--lam", "5e5"),
        ("sweep", "--N", "inf", "--Lmax", "0"),
        ("-h",),
        ("sweep", "-h"),
    ], ids=["kato", "sweep", "help", "sweep-help"])
    def test_closed_stdout_exits_3(self, args):
        # Python sets sys.stdout to None when it starts with fd 1 closed;
        # argparse would then print the help to stderr and exit 0
        proc = self.cli(*args, close_stdout=True)
        assert proc.returncode == EXIT_INPUT
        err = proc.stderr.decode()
        assert err == "input error: [Errno 9] Bad file descriptor: '<stdout>'\n"

    def test_closed_stdout_is_no_error_when_nothing_goes_there(self, tmp_path):
        out = tmp_path / "kato.txt"
        proc = self.cli("kato", "--k", "1e6", "--lam", "5e5", "--out", str(out),
                        close_stdout=True)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert out.read_bytes() == (ROOT / "bench" / "refs" / "kato_k1e6.txt").read_bytes()

    def test_kato_reference(self):
        proc = self.cli("kato", "--k", "1e6", "--lam", "5e5", "--eps", "1e-10")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == (ROOT / "bench" / "refs" / "kato_k1e6.txt").read_bytes()

    def test_kato_lower_tail_reference(self):
        proc = self.cli("kato", "--k", "1e6", "--lam", "2e5", "--eps", "1e-10", "--dir", "lower")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.decode() == golden.stdout("kato_lower_k1e6_lam2e5_eps1e-10")

    def test_nine_table_analyze_reference(self):
        # relative paths: the header echoes them, and mu and px come from the names
        tables = [str(Path(t).relative_to(ROOT)) for t in ALL_TABLES]
        proc = self.cli("analyze", *tables, "--N", "5e10")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == (ROOT / "bench" / "refs" / "analyze_nine_N5e10.txt").read_bytes()

    def test_asymptotic_sweep_reference(self):
        proc = self.cli("sweep", "--N", "inf")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.decode() == golden.stdout("sweep_Ninf")

    @pytest.mark.parametrize("argv, name", [
        ("analyze fixtures/tableIIIa_mu9e-4.csv", "analyze_tableIIIa_mu9e-4"),
        ("analyze fixtures/tableIIIb_mu8e-4.csv --analytic-gain --length-km 10",
         "analyze_tableIIIb_mu8e-4_analytic_gain_10km"),
        ("simulate --seed 3 --rounds 1000000 --loss-db 30", "simulate_seed3_1e6_30dB"),
    ], ids=["analyze-a9", "analyze-b8-analytic", "simulate-30db"])
    def test_pinned_report(self, argv, name):
        proc = self.cli(*argv.split())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.decode() == golden.stdout(name)

    def test_top_level_help_lists_every_subcommand(self, monkeypatch):
        proc = self.cli("--help")
        assert proc.returncode == EXIT_OK, proc.stderr
        monkeypatch.setenv("COLUMNS", "80")
        assert proc.stdout.decode() == build_parser().format_help()
        assert "{simulate,sweep,analyze,kato}" in proc.stdout.decode()
