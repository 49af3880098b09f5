"""Benchmark entry point: one workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; nothing needs
building.  The script times the start-up of several fresh worker processes
(``setup_s``), half of them before and half after one more worker that
measures the workload for ``S`` seconds (``worker.py``).  Workers, and the
reference start-ups ``setup_s`` is divided by, run one at a time,
single-threaded, so at most two processes (this one, mostly waiting, and
the child) are alive.

Every metric is printed as ``name = value unit``, followed by the run's
environment.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
same record, with the environment, goes to ``bench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "_work" / "results"

# setup_s is the median of this many worker start-ups, half before the
# measuring worker and half after it.  Start-up times follow the shared
# machine's fast and slow stretches (see speed.py) and moved by 30% between
# sets of runs of the same code, so each start-up is divided by the mean of
# two reference start-ups right before and after it: a bare interpreter that
# imports numpy, a fixed cost outside the program.  setup_s is the median
# quotient times START_NOMINAL_S, about the reference's own time here.
SETUP_SAMPLES = 10
START_REFERENCE = ("-c", "import numpy")
START_NOMINAL_S = 0.2
# every worker is killed once the run has taken this long
DEADLINE_S = 170.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _reference_start_s(deadline):
    started = time.monotonic()
    try:
        subprocess.run([sys.executable, *START_REFERENCE], cwd=ROOT, env=_worker_env(),
                       check=True, timeout=max(deadline - started, 0.0))
    except subprocess.SubprocessError as exc:
        raise RuntimeError(f"reference start-up failed: {exc}") from exc
    return time.monotonic() - started


def _setup_s(base, deadline, count):
    """``count`` worker start-ups, each divided by the reference start-ups
    on either side of it and scaled to START_NOMINAL_S."""
    out = []
    before = _reference_start_s(deadline)
    for _ in range(count):
        raw = _run_worker([*base, "--setup-only"], deadline)[0]
        after = _reference_start_s(deadline)
        out.append(raw / (0.5 * (before + after)) * START_NOMINAL_S)
        before = after
    return out


def _run_worker(args, deadline):
    """Start a worker and wait for it; return (seconds to ready, events)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    started = time.monotonic()
    timeout = max(deadline - started, 0.0)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} still running at the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    events = {}
    for line in out.splitlines():
        if line.startswith('{"event"'):
            record = json.loads(line)
            events[record["event"]] = record
    if "ready" not in events:
        raise RuntimeError(f"worker {' '.join(args)} never reported ready")
    return events["ready"]["t"] - started, events


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/triqss/__init__.py", "fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a triqss checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    try:
        setups = _setup_s(base, deadline, SETUP_SAMPLES // 2)
        ready_s, events = _run_worker(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups += _setup_s(base, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    result = events.get("result")
    if result is None:
        print("bench: worker reported no result", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    wanted = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in wanted}
    problems = result["problems"] + result["pooled_problems"]
    correct = result["failed"] == 0 and not result["pooled_problems"]
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": events["ready"]["numpy"],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    info = dict(result["info"], setup_samples_s=setups, measuring_worker_ready_s=ready_s,
                ops_failed_frac=result["failed"] / result["attempted"])

    for name, rec in out.items():
        print(f"{name} = {rec['value']:.6g} {rec['unit']}")
    for key, value in {**info, **env}.items():
        if key != "op_times_s":
            print(f"# {key} = {value}")
    for problem in problems:
        print(f"# problem: {problem.strip()}")

    record = {"correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": out}
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump({**record, "info": info, "env": env, "problems": problems,
                   "argv": sys.argv[1:]}, fh, indent=1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
