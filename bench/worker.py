"""One benchmark workload, measured in a fresh single-threaded process.

``run.py`` starts this script with the repository root as working
directory and ``src`` on ``PYTHONPATH``.  It prints JSON lines on stdout:
``{"event": "ready", ...}`` once ``triqss`` is imported and the inputs are
built, then ``{"event": "result", ...}`` after measuring.  With
``--setup-only`` it stops after the first line.

The loop is closed: one caller, and the next op starts only after the
previous one has finished and been checked.  Nothing queues, so no layer
has a wait time to report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from triqss import cli, optics, protocol, rates

import speed
from spec import PER_LAYER, TRACED, WORKLOADS
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = BENCH / "_work"
REFS = BENCH / "refs"

# Pooled Monte Carlo checks fail beyond this many standard deviations.  At
# 3 sigma the four two-sided tests of a run would raise a false alarm about
# once in 90 runs, so a campaign of ~50 Monte Carlo runs would fail ~40% of
# the time; at 4.5 sigma that chance is below 0.2%.
Z_LIMIT = 4.5

README_SOURCE = optics.SourceParams(intensity=9e-4, px=0.9)


def _run_problems(run, thresholds=None, rounds=None):
    """Checks every Monte Carlo op must pass, whatever the engine."""
    t = run.tallies
    problems = []
    if run.rounds_used != t.rounds:
        problems.append(f"rounds_used {run.rounds_used} != tallied rounds {t.rounds}")
    if rounds is not None and run.rounds_used != rounds:
        problems.append(f"ran {run.rounds_used} rounds, asked for {rounds}")
    if thresholds is not None:
        counts = (t.n_x, t.n_ybc, t.n_yac)
        goals = (thresholds.n_x, thresholds.n_ybc, thresholds.n_yac)
        if any(c < g for c, g in zip(counts, goals)):
            problems.append(f"stopped at {counts} before thresholds {goals}")
        elif not any(c == g for c, g in zip(counts, goals)):
            # the stop round adds the last event of some set, so that set
            # sits exactly on its threshold
            problems.append(f"ran past the stop round: {counts} vs {goals}")
    keys = (run.key_a, run.key_b, run.key_c)
    if any(len(k) != t.n_x for k in keys):
        problems.append(f"key lengths {[len(k) for k in keys]} != n_x {t.n_x}")
    else:
        wrong = int(np.count_nonzero((run.key_a ^ run.key_b) != run.key_c))
        if wrong != t.m_x:
            problems.append(f"{wrong} key bits break a^b=c but m_x={t.m_x}")
    return problems


class _McPool:
    """Tallies pooled over a run's distinct ops, checked against the model.

    By Wald's identity the pooled counts stay unbiased when each op stops at
    a threshold, so the same binomial pulls serve both Monte Carlo workloads.
    """

    def __init__(self, source, channel):
        self.source, self.channel = source, channel
        self.rounds = self.n_x = self.n_ybc = self.n_yac = self.m_x = 0

    def add(self, run):
        t = run.tallies
        self.rounds += t.rounds
        self.n_x += t.n_x
        self.n_ybc += t.n_ybc
        self.n_yac += t.n_yac
        self.m_x += t.m_x

    def problems(self):
        if self.rounds == 0:
            return ["no rounds pooled"]
        ch, px = self.channel, self.source.px
        eta = optics.transmittance(ch)
        q = optics.gain(self.source.intensity, eta, ch.dark_count)
        ebx = optics.bit_error_x(self.source.intensity, eta, ch.dark_count, ch.misalignment)

        def pull(n, trials, p):
            return (n - trials * p) / math.sqrt(trials * p * (1.0 - p))

        pulls = {
            "n_x": pull(self.n_x, self.rounds, px ** 3 * q),
            "n_ybc": pull(self.n_ybc, self.rounds, px * (1 - px) ** 2 * q),
            "n_yac": pull(self.n_yac, self.rounds, px * (1 - px) ** 2 * q),
            "m_x": pull(self.m_x, self.n_x, ebx) if self.n_x else math.inf,
        }
        return [f"pooled {k} pull {z:.2f} beyond {Z_LIMIT} sigma"
                for k, z in pulls.items() if not abs(z) <= Z_LIMIT]


class McThreshold:
    """run_protocol in threshold mode at the README settings, 30 dB."""

    # one Y event per set keeps an op near 1.2e7 rounds, about 2 s; 200 X
    # events make the X set, not the rare Y events, decide the stop round in
    # ~85% of ops.  Short ops pair better with their reference timings
    THRESHOLDS = (200, 1, 1)
    # the kernel an op is divided by, and its passes on each side of an op
    # (see speed.py)
    REFERENCE = (speed.arrays, 4)
    trace_off_variant = False

    def __init__(self, seed):
        self.channel = optics.ChannelModel(length_km=30.0 / 0.167)
        self.thresholds = protocol.SetThresholds(*self.THRESHOLDS)
        self.pool = _McPool(README_SOURCE, self.channel)
        self._rng = random.Random(seed)

    def op_input(self, i):
        return self._rng.getrandbits(63)

    def warm_up(self):
        protocol.run_protocol(README_SOURCE, self.channel, seed=0, max_rounds=10 ** 5)

    def run(self, seed):
        return protocol.run_protocol(README_SOURCE, self.channel, seed=seed,
                                     thresholds=self.thresholds)

    def inspect(self, seed, run):
        return _run_problems(run, thresholds=self.thresholds), run.rounds_used, {}


class McTrace:
    """run_protocol for a fixed round count at 0 km, full per-round trace."""

    # about 0.45 s an op: short ops pair better with their reference timings
    ROUNDS = 20_000
    # the Python loop that writes trace rows dominates an op
    REFERENCE = (speed.text, 3)
    trace_off_variant = True

    def __init__(self, seed):
        self.channel = optics.ChannelModel(length_km=0.0)
        self.pool = _McPool(README_SOURCE, self.channel)
        self.trace_path = WORK_DIR / "tmp" / "trace.csv"
        self.trace_path.parent.mkdir(parents=True, exist_ok=True)
        self._rng = random.Random(seed)

    def op_input(self, i):
        return self._rng.getrandbits(63)

    def warm_up(self):
        protocol.run_protocol(README_SOURCE, self.channel, seed=0, max_rounds=1000,
                              trace_path=self.trace_path)
        self.trace_path.unlink()

    def run(self, seed, trace_file=True):
        return protocol.run_protocol(README_SOURCE, self.channel, seed=seed,
                                     max_rounds=self.ROUNDS,
                                     trace_path=self.trace_path if trace_file else None)

    def inspect(self, seed, run, trace_file=True):
        problems = _run_problems(run, rounds=self.ROUNDS)
        if not trace_file:
            return problems, run.rounds_used, {}
        try:
            data = self.trace_path.read_bytes()
        finally:
            self.trace_path.unlink(missing_ok=True)
        lines = data.splitlines()
        rows = lines[1:]
        if len(rows) != run.rounds_used:
            problems.append(f"trace has {len(rows)} rows for {run.rounds_used} rounds")
        tags = Counter(line[line.rfind(b",") + 1:] for line in rows)
        t = run.tallies
        seen = (tags[b"X"], tags[b"YBC"], tags[b"YAC"])
        if seen != (t.n_x, t.n_ybc, t.n_yac):
            problems.append(f"trace set tags {seen} != tallies {(t.n_x, t.n_ybc, t.n_yac)}")
        counters = {"protocol.trace_rows": len(rows), "protocol.trace_bytes": len(data)}
        return problems, len(rows), counters


def _load_sweep_reference():
    """Rate curve written by ``triqss sweep --N 1e10`` at the commit that
    added this benchmark: {L_km: (rate_per_pulse, ell)}."""
    lines = [ln for ln in (REFS / "sweep_finite_1e10.csv").read_text().splitlines()
             if not ln.startswith("#")]
    cols = lines[0].split(",")
    out = {}
    for ln in lines[1:]:
        rec = dict(zip(cols, ln.split(",")))
        out[float(rec["L_km"])] = (float(rec["rate_per_pulse"]), float(rec["ell"]))
    return out


class SweepFinite:
    """sweep_distance over 0..260 km in 5 km steps at N=1e10."""

    N_PULSES = 1e10
    LENGTHS = tuple(5.0 * i for i in range(53))
    # the key length is floored to whole bits, so one bit of slack; beyond
    # that the optimum must repeat to 1e-6
    REL_TOL = 1e-6
    REFERENCE = (speed.scalar, 5)
    trace_off_variant = False

    def __init__(self, seed):
        self.channel = optics.ChannelModel()
        self.reference = _load_sweep_reference()
        if sorted(self.reference) != list(self.LENGTHS):
            raise RuntimeError("sweep reference does not cover 0..260 km in 5 km steps")
        self._rng = random.Random(seed)
        self.pool = None

    def op_input(self, i):
        # sweep_distance sorts its input, so the order only varies the call
        lengths = list(self.LENGTHS)
        self._rng.shuffle(lengths)
        return lengths

    def warm_up(self):
        rates.optimize_params(100.0, self.N_PULSES, self.channel)

    def run(self, lengths):
        return rates.sweep_distance(lengths, self.N_PULSES, self.channel)

    def inspect(self, lengths, points):
        problems = []
        got = [p.length_km for p in points]
        if got != list(self.LENGTHS):
            return [f"sweep returned distances {got[:3]}..., not 0..260 km"], len(points), {}
        curve = [p.rate_per_pulse for p in points]
        if any(b > a for a, b in zip(curve, curve[1:])):
            problems.append("rate increases with distance")
        for p in points:
            ref_rate, ref_ell = self.reference[p.length_km]
            if abs(p.ell - ref_ell) > max(1.0, self.REL_TOL * ref_ell):
                problems.append(f"L={p.length_km}: ell {p.ell} vs reference {ref_ell}")
            elif abs(p.rate_per_pulse - ref_rate) > max(1.0 / self.N_PULSES,
                                                        self.REL_TOL * ref_rate):
                problems.append(f"L={p.length_km}: rate {p.rate_per_pulse} vs {ref_rate}")
        return problems, len(points), {}


class AnalyzeCli:
    """In-process ``triqss analyze`` over the nine fixtures, then ``kato``."""

    ANALYZE_ARGS = ("--N", "5e10")
    KATO_ARGV = ("kato", "--k", "1e6", "--lam", "5e5", "--eps", "1e-10")
    MAX_CLOSED_NUMERIC_REL_DIFF = 1e-9
    REFERENCE = (speed.text, 1)
    trace_off_variant = False

    def __init__(self, seed):
        # relative paths: analyze reads mu and px from the file names, and
        # the working directory is the repository root
        self.tables = sorted(str(p.relative_to(ROOT))
                             for p in (ROOT / "fixtures").glob("tableIII*_mu*.csv"))
        if len(self.tables) != 9:
            raise RuntimeError(f"expected nine fixture tables, found {len(self.tables)}")
        self.ref_analyze = (REFS / "analyze_nine_N5e10.txt").read_bytes()
        self.ref_kato = (REFS / "kato_k1e6.txt").read_bytes()
        self._rng = random.Random(seed)
        self.pool = None

    def op_input(self, i):
        # the summary table is sorted by px and mu, so file order is free
        tables = list(self.tables)
        self._rng.shuffle(tables)
        return tables

    def warm_up(self):
        self.run(self.tables)

    def run(self, tables):
        outputs = []
        for argv in (["analyze", *tables, *self.ANALYZE_ARGS], list(self.KATO_ARGV)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue().encode()))
        return outputs

    def inspect(self, tables, outputs):
        problems = []
        (code_a, out_a), (code_k, out_k) = outputs
        if code_a != 0 or code_k != 0:
            problems.append(f"exit codes {code_a}, {code_k}")
        if out_a != self.ref_analyze:
            problems.append("analyze stdout differs from the reference")
        if out_k != self.ref_kato:
            problems.append("kato stdout differs from the reference")
        diff = math.inf
        for line in out_k.decode().splitlines():
            if line.startswith("closed_numeric_rel_diff = "):
                diff = float(line.split("=", 1)[1])
        if not diff < self.MAX_CLOSED_NUMERIC_REL_DIFF:
            problems.append(f"closed_numeric_rel_diff {diff}")
        return problems, 2, {"cli.output_bytes": len(out_a) + len(out_k)}


WORKLOAD_TYPES = dict(zip(WORKLOADS, (McThreshold, McTrace, SweepFinite, AnalyzeCli)))


class _Ledger:
    """Ops attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def attempt(self, wl, inp, *, pool=False, tracer=None, op=None, **kw):
        """Run one op, timed, then check it outside the timed region."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp, **kw)
            else:
                with tracer.recording(op):
                    out = wl.run(inp, **kw)
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail([traceback.format_exc(limit=3)])
            return elapsed, 0, {}
        elapsed = time.perf_counter() - t0
        try:
            problems, work, counters = wl.inspect(inp, out, **kw)
        except Exception:
            problems, work, counters = [traceback.format_exc(limit=3)], 0, {}
        if problems:
            self._fail(problems)
        elif pool and wl.pool is not None:
            wl.pool.add(out)
        return elapsed, work, counters

    def _fail(self, problems):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.extend(problems[:3])


# op_tail_s is the op time at the highest percentile with this many ops
# beyond it
TAIL_BEYOND = 10


def measure(wl, seconds, ledger):
    """Timed ops, each between two reference timings (see ``speed``).

    The next op starts only if the last one, with its reference timings,
    would still end before the deadline.
    """
    kernel, reps = wl.REFERENCE
    times, raw, works = [], [], []
    before = speed.reference_s(kernel, reps)
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        started = time.monotonic()
        elapsed, work, _ = ledger.attempt(wl, wl.op_input(i), pool=True)
        after = speed.reference_s(kernel, reps)
        times.append(speed.at_reference_speed(kernel, elapsed, before, after))
        raw.append(elapsed)
        works.append(work)
        before = after
        i += 1
        now = time.monotonic()
        if now + (now - started) > deadline:
            break
    # the tail is printed, not bounded: at most a few dozen ops fit in a run
    # of the longer workloads, and their tail moved by more than 25% between
    # runs of the same code
    n_tail = len(times) - TAIL_BEYOND
    return {
        "op_p50_s": statistics.median(times),
        "work_per_s": sum(works) / sum(times),
    }, {
        "ops": len(times),
        "op_min_s": min(times),
        "op_tail_pct": 100.0 * n_tail / len(times) if n_tail > 0 else None,
        "op_tail_s": sorted(times)[n_tail - 1] if n_tail > 0 else None,
        "op_max_s": max(times),
        "raw_op_p50_s": statistics.median(raw),
        "op_times_s": times,
    }


def measure_traced(wl, seconds, ledger, spans_path):
    """Per-layer metrics: each op runs untraced, then traced, same input.

    Per-layer metrics have no bound, so their times are raw, not divided by
    a reference timing.
    """
    tracer = Tracer()
    plain, traced, write_s = [], [], []
    op_counters = Counter()
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        started = time.monotonic()
        inp = wl.op_input(i)
        plain.append(ledger.attempt(wl, inp, pool=True)[0])
        elapsed, _, counters = ledger.attempt(wl, inp, tracer=tracer, op=i)
        traced.append(elapsed)
        op_counters.update(counters)
        if wl.trace_off_variant:
            write_s.append(plain[-1] - ledger.attempt(wl, inp, trace_file=False)[0])
        i += 1
        now = time.monotonic()
        if now + (now - started) > deadline:
            break
    n = len(traced)
    stats, (aborted_points, aborted_evals) = tracer.layer_stats()
    metrics = {}
    for module, fns in TRACED.items():
        for fn in fns:
            calls, total, self_s = stats[f"{module}.{fn}"]
            metrics[f"{module}.{fn}.calls"] = calls / n
            metrics[f"{module}.{fn}.total_s"] = total / n
            metrics[f"{module}.{fn}.self_s"] = self_s / n
    c = tracer.counters
    rounds = c["protocol.rounds"]
    evals = c["rates.evals"] + aborted_evals
    points = c["rates.points"] + aborted_points
    metrics.update({
        "protocol.rounds": rounds / n,
        "protocol.sifted": c["protocol.sifted"] / n,
        "protocol.sifted_per_round": c["protocol.sifted"] / rounds if rounds else 0.0,
        "protocol.ns_per_round":
            1e9 * stats["protocol.run_protocol"][1] / rounds if rounds else 0.0,
        "protocol.trace_write_s": statistics.median(write_s) if write_s else 0.0,
        "protocol.trace_rows": op_counters["protocol.trace_rows"] / n,
        "protocol.trace_bytes": op_counters["protocol.trace_bytes"] / n,
        "rates.evals_per_point": evals / points if points else 0.0,
        "rates.zero_rate_eval_frac":
            (c["rates.zero_evals"] + aborted_evals) / evals if evals else 0.0,
        "expdata.rows_parsed": c["expdata.rows_parsed"] / n,
        "cli.output_bytes": op_counters["cli.output_bytes"] / n,
        "trace_overhead_frac": sum(traced) / sum(plain) - 1.0,
    })
    if set(metrics) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("traced metrics do not match spec.PER_LAYER")
    tracer.write(spans_path)
    return metrics, {"ops": n, "spans": len(tracer.start), "spans_file": str(spans_path)}


def _emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOAD_TYPES[args.workload](args.seed)
    _emit("ready", t=time.monotonic(), numpy=np.__version__)
    if args.setup_only:
        return 0

    wl.warm_up()
    ledger = _Ledger()
    if args.trace:
        spans = WORK_DIR / f"spans_{args.workload}.json.gz"
        metrics, info = measure_traced(wl, args.seconds, ledger, spans)
    else:
        metrics, info = measure(wl, args.seconds, ledger)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pooled = wl.pool.problems() if wl.pool is not None else []
    _emit("result", attempted=ledger.attempted, failed=ledger.failed,
          problems=ledger.problems, pooled_problems=pooled, metrics=metrics, info=info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
