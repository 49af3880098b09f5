"""Command line interface.

Four subcommands: ``simulate`` (round-level protocol simulation),
``sweep`` (optimized key rate versus distance, CSV output), ``analyze``
(measured count tables to tallies and key rate), and ``kato`` (inspect one
concentration bound, with a numeric self-check).

``main`` builds one parser per process and reuses it on later calls;
``build_parser`` builds a new one on every call.

Settings resolve with precedence command-line flag, then config file
(``--config``, flat ``key = value`` lines), then built-in default.  The
effective configuration is echoed as ``#`` comment lines at the top of every
output, so a result file records how it was produced.  Outputs contain no
timestamps: rerunning a command with the same inputs gives identical bytes.
This module is the one place that formats output: each subcommand renders
the library's result records, which hold data only.

Exit codes: 0 success, 2 protocol abort (no key under the requested
conditions), 3 input error, 4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import re
import sys
from dataclasses import fields

from . import expdata, rates, report
from .errors import (
    CountTableError,
    DegenerateGainError,
    NumericalDegeneracyError,
    ParameterError,
    ProtocolAbortError,
    QssError,
)
from .finitekey import (
    EC_EFFICIENCY,
    EpsilonBudget,
    azuma_deviation,
    expected_to_observed,
    kato_coeffs_numeric,
    kato_lower_coeffs,
    kato_upper_coeffs,
    observed_to_expected,
)
from .optics import ChannelModel, SourceParams

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

MAX_GRID_POINTS = 100_000

class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 3, and
    writes its help to stdout as a subcommand writes its output."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse would send the help to stderr when sys.stdout is None, and
        # ignore a failed write
        if file is None:
            _write_stdout(self.format_help())
        else:
            super().print_help(file)


# float flag groups, as (flag, help); argparse derives each dest from the flag
_SOURCE_FLAGS = (("--mu", "pulse intensity per player"), ("--px", "X basis probability"))
_LENGTH_FLAGS = (
    ("--loss-db", "total player-to-player loss in dB (overrides --length-km)"),
    ("--length-km", "fiber length in km"),
)
_FIBER_FLAGS = (
    ("--alpha", "attenuation in dB/km"),
    ("--eta-d", "detector efficiency"),
    ("--dark", "dark count probability per gate"),
    ("--ed", "misalignment probability"),
)
_EPS_FLAGS = (
    ("--eps-c", "correctness failure probability"),
    ("--eps-pa", "privacy amplification failure probability"),
    ("--eps-a", "observed-to-expected bound failure probability"),
    ("--eps-b", "expected-to-observed bound failure probability"),
)
_SECURITY_FLAGS = (("--fe", "error correction efficiency, at least 1"), *_EPS_FLAGS)


# subcommand -> (help, float flag groups, its own flags as (flag, add_argument
# keywords)); --config and --out come first in every subcommand
_SUBCOMMANDS = {
    "simulate": ("simulate protocol rounds", (_SOURCE_FLAGS, _LENGTH_FLAGS, _FIBER_FLAGS), (
        ("--seed", dict(type=int, help="master seed (required)")),
        ("--rounds", dict(type=float, help="simulate exactly this many rounds")),
        ("--nx", dict(type=int, help="X-set detection threshold")),
        ("--nybc", dict(type=int, help="YBC-set detection threshold")),
        ("--nyac", dict(type=int, help="YAC-set detection threshold")),
        ("--max-rounds", dict(type=float, help="round cap in threshold mode")),
        ("--trace", dict(help="write a per-round trace CSV to this path")),
    )),
    "sweep": ("optimized key rate versus distance", (_FIBER_FLAGS, _SECURITY_FLAGS), (
        ("--N", dict(type=float, dest="n_pulses",
                     help="total pulses, or 'inf' for the asymptotic curve")),
        ("--Lmin", dict(type=float, dest="lmin", help="start distance, km")),
        ("--Lmax", dict(type=float, dest="lmax", help="end distance, km")),
        ("--step", dict(type=float, help="distance step, km")),
    )),
    "analyze": ("analyze measured count tables",
                (_SOURCE_FLAGS, _LENGTH_FLAGS, _FIBER_FLAGS, _SECURITY_FLAGS), (
        ("tables", dict(nargs="+", help="count table CSV paths")),
        ("--N", dict(type=float, dest="n_pulses", help="total emitted pulses")),
        ("--rep-rate", dict(type=float,
                            help="pulse rate in Hz for bits-per-second conversion")),
        ("--analytic-gain", dict(action="store_true",
                                 help="use the model gain for the coin imbalance "
                                      "instead of the observed sifted gain")),
    )),
    "kato": ("inspect one concentration bound", (), (
        ("--k", dict(type=float, help="number of trials (required)")),
        ("--lam", dict(type=float, help="observed sum (required)")),
        ("--eps", dict(type=float, help="failure probability (default 1e-10)")),
        ("--dir", dict(choices=("upper", "lower"), dest="direction",
                       help="bound direction (default: upper)")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``triqss`` parser, with all four subcommands."""
    parser = _Parser(prog="triqss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, groups, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        for group in groups:
            for flag, flag_help in group:
                p.add_argument(flag, type=float, help=flag_help)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


# built once per process for main; reuse is safe, as parse_args keeps no
# state between calls and help and usage read the terminal width when they print
_parser = functools.cache(build_parser)


# namespace entries that a config key cannot set
_NOT_CONFIGURABLE = frozenset({"command", "config", "out", "tables", "analytic_gain"})


class Settings:
    """Effective configuration after flag > config > default resolution.

    A config key must name a setting of the subcommand (a flag's dest, such
    as ``eta_d`` for ``--eta-d``); any other key is an input error.
    """

    def __init__(self, ns: argparse.Namespace):
        self._ns = ns
        self._config = {}
        if ns.config:
            self._config = report.parse_kv(report.read_utf8(
                ns.config, lambda message, line: ParameterError(f"config line {line}: {message}")))
            unknown = sorted(set(self._config) - set(vars(ns)).difference(_NOT_CONFIGURABLE))
            if unknown:
                raise ParameterError(
                    f"config key(s) not read by {ns.command}: {', '.join(unknown)}")
        self.effective: dict = {}

    def flag_or_config(self, name: str, conv=float):
        """Flag > config lookup with no default and no effective-echo entry."""
        value = getattr(self._ns, name, None)
        if value is None and name in self._config:
            raw = self._config[name]
            try:
                value = conv(raw)
            except ValueError:
                raise ParameterError(f"config value {name} = {raw!r} is not valid") from None
        return value

    def get(self, name: str, conv=float, default=None):
        value = self.flag_or_config(name, conv)
        if value is None:
            value = default
        self.effective[name] = value
        return value

    def channel(self, *, with_length: bool = True) -> ChannelModel:
        """Channel model; ``with_length=False`` leaves the length at 0 unread."""
        default = ChannelModel()
        alpha = self.get("alpha", float, default.alpha_db_per_km)
        length = 0.0
        if with_length:
            loss_db = self.get("loss_db", float, None)
            if loss_db is not None:
                if not alpha > 0:
                    raise ParameterError("--loss-db needs a positive --alpha")
                length = loss_db / alpha
                self.effective["length_km"] = length
            else:
                length = self.get("length_km", float, 0.0)
        return ChannelModel(
            alpha_db_per_km=alpha,
            length_km=length,
            det_efficiency=self.get("eta_d", float, default.det_efficiency),
            dark_count=self.get("dark", float, default.dark_count),
            misalignment=self.get("ed", float, default.misalignment),
        )

    def ec_efficiency(self) -> float:
        fe = self.get("fe", float, EC_EFFICIENCY)
        if not 1.0 <= fe < math.inf:
            raise ParameterError("--fe must be finite and at least 1")
        return fe

    def budget(self) -> EpsilonBudget:
        # the config keys are the field names, in field order
        return EpsilonBudget(**{f.name: self.get(f.name, float, f.default)
                                for f in fields(EpsilonBudget)})


def _given(settings: Settings, flags) -> list:
    """The flags of a flag group that a flag or a config key sets."""
    return [flag for flag, _ in flags
            if settings.flag_or_config(flag[2:].replace("-", "_")) is not None]


@contextlib.contextmanager
def _naming(path):
    """Name ``path`` on an OSError raised without a file name, as by a failed write or close."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        with _naming(ns.out), open(ns.out, "w") as fh:
            fh.write(text)
    else:
        _write_stdout(text)


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it; an OSError names ``<stdout>``."""
    if sys.stdout is None:
        # Python sets it to None when it starts with fd 1 closed, as by `>&-`
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    try:
        with _naming("<stdout>"):
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError:
        # the text that failed stays buffered; point stdout at the null
        # device, so the flush at exit does not fail on it again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


def _header(command: str, settings: Settings) -> str:
    lines = [f"# triqss {command}"]
    for key, value in settings.effective.items():
        if value is not None:
            lines.append(f"# config.{key} = {report.fmt_value(value)}")
    return "\n".join(lines) + "\n"


def _set_counts(t) -> dict:
    """The detections and errors of a ``SetCounts`` record, then ``n_y``."""
    return {"n_x": t.n_x, "m_x": t.m_x, "n_ybc": t.n_ybc, "m_ybc": t.m_ybc,
            "n_yac": t.n_yac, "m_yac": t.m_yac, "n_y": t.n_y}


def cmd_simulate(ns: argparse.Namespace) -> int:
    # the only subcommand that needs numpy, so the others start without it
    from .protocol import SetThresholds, run_protocol

    settings = Settings(ns)
    source = SourceParams(intensity=settings.get("mu", float, 9e-4),
                          px=settings.get("px", float, 0.9))
    channel = settings.channel()
    seed = settings.get("seed", int, None)
    if seed is None:
        raise ParameterError("simulate is stochastic: --seed is required")
    rounds = settings.get("rounds", float, None)
    nx = settings.get("nx", int, None)
    nybc = settings.get("nybc", int, None)
    nyac = settings.get("nyac", int, None)
    max_rounds = settings.get("max_rounds", float, None)
    trace = settings.get("trace", str, None)
    if rounds is not None and max_rounds is not None:
        # --rounds is the round count or, with thresholds, the cap
        raise ParameterError("give --rounds or --max-rounds, not both")

    thresholds = None
    if nx is not None or nybc is not None or nyac is not None:
        if None in (nx, nybc, nyac):
            raise ParameterError("threshold mode needs all of --nx, --nybc, --nyac")
        thresholds = SetThresholds(n_x=nx, n_ybc=nybc, n_yac=nyac)
    elif rounds is None:
        raise ParameterError("give --rounds or all of --nx, --nybc, --nyac")

    abort_exc = None
    try:
        with _naming(trace):
            run = run_protocol(
                source, channel, seed=seed,
                thresholds=thresholds,
                max_rounds=rounds if rounds is not None else max_rounds,
                trace_path=trace,
            )
    except ProtocolAbortError as exc:
        if exc.partial is None:
            raise
        run, abort_exc = exc.partial, exc

    t = run.tallies
    body = {
        "rounds_used": t.rounds,
        **_set_counts(t),
        "key_bits": int(run.key_a.size),
        "abort": abort_exc is not None,
    }
    if t.n_x:
        body["eb_x_observed"] = t.eb_x
    if t.n_ybc:
        body["eb_ybc_observed"] = t.eb_ybc
    if t.n_yac:
        body["eb_yac_observed"] = t.eb_yac
    _emit(ns, _header("simulate", settings) + report.render_kv(body))
    if abort_exc is not None:
        print(f"abort: {abort_exc}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def distance_grid(lmin: float, lmax: float, step: float) -> list[float]:
    """Distances ``lmin, lmin + step, ...`` up to ``lmax``, at most ``MAX_GRID_POINTS``."""
    if not all(math.isfinite(v) for v in (lmin, lmax, step)):
        raise ParameterError("Lmin, Lmax and step must be finite")
    if step <= 0 or not 0 <= lmin <= lmax:
        raise ParameterError("need step > 0 and 0 <= Lmin <= Lmax")
    # counted with a small relative tolerance, so that a span a rounding
    # error below a whole number, as (0.3 - 0) / 0.1 = 2.9999999999999996,
    # still ends on lmax
    span = (lmax - lmin) / step * (1.0 + 1e-9)
    # compare before converting: the span can overflow to inf
    if not span < MAX_GRID_POINTS:
        raise ParameterError(f"grid exceeds {MAX_GRID_POINTS} distances; raise step")
    return [lmin + i * step for i in range(int(span) + 1)]


def cmd_sweep(ns: argparse.Namespace) -> int:
    settings = Settings(ns)
    # the grid sets the length of each point
    channel = settings.channel(with_length=False)
    budget = settings.budget()
    fe = settings.ec_efficiency()
    n_pulses = settings.get("n_pulses", float, 1e10)
    lmin = settings.get("lmin", float, 0.0)
    lmax = settings.get("lmax", float, 260.0)
    step = settings.get("step", float, 5.0)
    if not n_pulses > 0:
        raise ParameterError("--N must be positive")
    # the asymptotic curve spends no failure budget, though the header echoes it
    unread = _given(settings, _EPS_FLAGS) if math.isinf(n_pulses) else []
    if unread:
        raise ParameterError(f"{', '.join(unread)} not read by sweep --N inf")
    lengths = distance_grid(lmin, lmax, step)
    if math.isinf(n_pulses):
        points = rates.asymptotic_sweep(lengths, channel, fe)
    else:
        points = rates.sweep_distance(lengths, n_pulses, channel, fe, budget)

    out = [_header("sweep", settings), "L_km,mu,px,rate_per_pulse,ell,Ep_bar,EbX,N\n"]
    for p in points:
        out.append(",".join(report.fmt_value(v) for v in (
            p.length_km, p.mu, p.px, p.rate_per_pulse, p.ell, p.ep_bar, p.eb_x, p.n_pulses,
        )) + "\n")
    _emit(ns, "".join(out))
    return EXIT_OK


_MU_IN_NAME = re.compile(r"mu([0-9]+(?:\.[0-9]+)?e-?[0-9]+|[0-9.]+)", re.IGNORECASE)
_PX_BY_TABLE = {"a": 0.9, "b": 0.8, "c": 0.7}
_TABLE_IN_NAME = re.compile(r"tableIII([abc])", re.IGNORECASE)


def _infer_from_name(path: str) -> tuple:
    """Best-effort (mu, px) from a fixture-style file name, not its directories."""
    name = os.path.basename(path)
    mu = px = None
    m = _MU_IN_NAME.search(name)
    if m:
        try:
            mu = float(m.group(1))
        except ValueError:
            mu = None
    m = _TABLE_IN_NAME.search(name)
    if m:
        px = _PX_BY_TABLE[m.group(1).lower()]
    return mu, px


def cmd_analyze(ns: argparse.Namespace) -> int:
    settings = Settings(ns)
    budget = settings.budget()
    fe = settings.ec_efficiency()
    n_pulses = settings.get("n_pulses", float, 5e10)
    rep_rate = settings.get("rep_rate", float, expdata._REP_RATE_HZ)
    if not 0 < n_pulses < math.inf:
        raise ParameterError("--N must be positive and finite")
    analytic = ns.analytic_gain
    # without --analytic-gain the channel model is never built, so a channel
    # setting from a flag or the config would go unread
    given = _given(settings, _LENGTH_FLAGS + _FIBER_FLAGS)
    if given and not analytic:
        raise ParameterError(f"{', '.join(given)} needs --analytic-gain")
    settings.effective["gain_mode"] = "analytic" if analytic else "observed"
    channel = settings.channel() if analytic else None
    # mu/px: explicit flag or config wins, else inferred from each file
    # name; the global defaults are NOT applied here because silently
    # rating a table at the wrong intensity would be worse than failing.
    mu_given, px_given = settings.flag_or_config("mu"), settings.flag_or_config("px")

    results = []
    for path in ns.tables:
        mu_name, px_name = _infer_from_name(path)
        mu = mu_given if mu_given is not None else mu_name
        px = px_given if px_given is not None else px_name
        if mu is None or px is None:
            raise ParameterError(
                f"{path}: cannot infer mu/px from the file name; pass --mu and --px"
            )
        try:
            summary = expdata.tally_table(path, mu=mu, px=px)
            result = expdata.experiment_skr(
                summary, n_pulses, budget,
                ec_efficiency=fe,
                channel=channel,
                rep_rate_hz=rep_rate,
            )
        except QssError as exc:
            # with several tables, the message must say which one failed
            exc.args = (f"{path}: {exc}",)
            raise
        results.append((path, summary, result))

    out = [_header("analyze", settings)]
    out.append("# n_pulses counts every emitted pulse\n")
    if len(results) == 1:
        path, summary, result = results[0]
        body = {
            "table": path,
            **_set_counts(summary),
            "eb_x": summary.eb_x, "eb_ybc": summary.eb_ybc, "eb_yac": summary.eb_yac,
            "eb_y_worst": summary.eb_y_worst,
            "mu": summary.mu, "px": summary.px,
            "n_pulses": result.n_pulses, "ep_bar": result.phase.ep_bar,
            "lambda_ec": result.lambda_ec, "ell": result.ell,
            "rate_per_pulse": result.rate_per_pulse, "abort": result.ell == 0,
            "rate_per_second": result.rate_per_second,
            **{"phase." + f.name: getattr(result.phase, f.name) for f in fields(result.phase)},
            **{f.name: getattr(result.budget, f.name) for f in fields(result.budget)},
            "eps_phase": result.budget.eps_phase,
            "eps_secrecy": result.budget.eps_secrecy,
        }
        out.append(report.render_kv(body))
    else:
        # summary table, one row per input, ordered by px then mu descending
        results.sort(key=lambda r: (-r[1].px, -r[1].mu))
        out.append("px,mu,EbX_pct,EbY_pct,Ep_pct,n_x,n_y,skr_per_pulse,skr_per_s\n")
        for path, summary, result in results:
            row = [
                report.fmt_value(summary.px), report.fmt_value(summary.mu),
                f"{100.0 * summary.eb_x:.2f}", f"{100.0 * summary.eb_y_worst:.2f}",
                f"{100.0 * result.phase.ep_bar:.2f}",
                str(summary.n_x), str(summary.n_y),
                report.fmt_value(result.rate_per_pulse),
                report.fmt_value(result.rate_per_second),
            ]
            out.append(",".join(row) + "\n")
    _emit(ns, "".join(out))
    if any(result.ell == 0 for _, _, result in results):
        return EXIT_ABORT
    return EXIT_OK


def cmd_kato(ns: argparse.Namespace) -> int:
    settings = Settings(ns)
    k = settings.get("k", float, None)
    lam = settings.get("lam", float, None)
    eps = settings.get("eps", float, 1e-10)
    direction = settings.get("direction", str, "upper")
    if k is None or lam is None:
        raise ParameterError("kato needs --k and --lam, as flags or config keys")

    closed = (kato_upper_coeffs if direction == "upper" else kato_lower_coeffs)(lam, k, eps)
    numeric = kato_coeffs_numeric(lam, k, eps, direction)
    body = {
        "direction": direction,
        "k": k, "lam": lam, "eps": eps,
        "a": closed.a, "b": closed.b,
        "deviation": closed.deviation,
        "bound": observed_to_expected(lam, k, eps, direction),
        "numeric_a": numeric.a,
        "numeric_deviation": numeric.deviation,
        # deviations scale as sqrt(k), and the numeric one is good to about
        # 1e-15 of that; below a millionth of sqrt(k) both read as zero
        "closed_numeric_rel_diff": abs(closed.deviation - numeric.deviation)
        / max(abs(numeric.deviation), 1e-6 * math.sqrt(k)),
        "zero_coeff_deviation": expected_to_observed(0.0, k, eps, "upper"),
        "azuma_deviation": azuma_deviation(k, eps),
    }
    _emit(ns, _header("kato", settings) + report.render_kv(body))
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "kato": cmd_kato,
}


def main(argv=None) -> int:
    try:
        # parsing writes the help, which may fail like any output
        ns = _parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except (NumericalDegeneracyError, DegenerateGainError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ProtocolAbortError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (CountTableError, ParameterError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # only a path the user named (config, table, --out, --trace) or
        # stdout carries a file name, and _naming gives it to a failed write
        # or close; other OS errors are not input errors
        if exc.filename is None:
            raise
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
