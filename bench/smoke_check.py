"""Smoke test of the benchmark itself (about a minute).

    python3 -m pytest bench/smoke_check.py

The file name keeps it out of the default test collection: every case
starts benchmark processes that each run at least one full op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _bench(root, workload, trace, seconds=0.1):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def _copy(names, dest):
    shutil.rmtree(dest, ignore_errors=True)
    for name in names:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
        else:
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copy(src, dest / name)


@pytest.fixture
def copy_dir():
    path = BENCH / "_work" / "smoke"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_matches_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in doc["workloads"]) == WORKLOADS
    assert tuple((m["name"], m["unit"]) for m in doc["end_to_end"]) == END_TO_END
    assert tuple((m["name"], m["unit"]) for m in doc["per_layer"]) == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    for name, unit in expected:
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines)


def test_corrupted_reference_counts_as_failed_op(copy_dir):
    _copy(["src", "fixtures", "bench"], copy_dir)
    ref = copy_dir / "bench" / "refs" / "analyze_nine_N5e10.txt"
    original = ref.read_bytes()
    corrupted = original.replace(b"398.856", b"398.857")
    assert corrupted != original
    ref.write_bytes(corrupted)
    proc = _bench(copy_dir, "analyze_cli", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_exits_nonzero_without_the_program(copy_dir):
    _copy(["BENCHMARK.json", "bench"], copy_dir)
    proc = _bench(copy_dir, "analyze_cli", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
