"""Mutation gate: each small edit of the physics or of a check must make tier-1 fail.

    python -m pytest tests/mutations.py

The file name keeps it out of the default test collection, as with
``bench/smoke_check.py``: each case copies ``src/`` to a temporary
directory, applies its edit there and runs the whole tier-1 suite against
the copy under ``-x``.  A case passes only when that run fails with exit
code 1, a failed test: a collection error (exit code 2) says nothing about
the physics.  The old text of each edit must occur exactly once in its
module, so that a refactor cannot turn a mutation into a no-op.

No run leaves a file in the repository: the mutant suite runs from the
temporary directory with no pytest cache and no bytecode, and keeps its
hypothesis database there.  Tests that start their own interpreter on
``src/`` run the unmutated package; the in-process tests see the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triqss"

# (name, module, old text, new text)
MUTATIONS = (
    ("yac-flip-dropped", "roundtable.py",
     "CELL_BIT = tuple(turns >> 1 for turns in CELL_TURNS)",
     "CELL_BIT = tuple(a ^ b for a, b in zip(_S_A, _S_B))"),
    ("y-share-swapped", "roundtable.py",
     "return px ** 3, px * (1.0 - px) ** 2",
     "return px ** 3, px ** 2 * (1.0 - px)"),
    ("coin-imbalance-halved", "optics.py",
     "delta = (1.0 - basis_overlap(mu)) / (2.0 * gain_value)",
     "delta = (1.0 - basis_overlap(mu)) / (4.0 * gain_value)"),
    ("kato-deviation-x0.8", "finitekey.py",
     "return a, b, (dev if dev > 0.0 else 0.0)",
     "return a, b, 0.8 * (dev if dev > 0.0 else 0.0)"),
    ("step-2-square-root-dropped", "optics.py",
     "4.0 * (1.0 - 2.0 * delta), delta * (1.0 - delta))",
     "0.0 * (1.0 - 2.0 * delta), delta * (1.0 - delta))"),
    ("step-3-halved", "finitekey.py",
     "return math.sqrt(0.5 * k * log_inv_eps)",
     "return 0.5 * math.sqrt(0.5 * k * log_inv_eps)"),
    ("best-of-y-sets", "expdata.py",
     "if chain_bc[-1] >= chain_ac[-1]:",
     "if chain_bc[-1] <= chain_ac[-1]:"),
    ("ybc-rated-with-the-yac-chain", "expdata.py",
     "summary.m_ybc, coin, budget, chain_bc)",
     "summary.m_ybc, coin, budget, chain_ac)"),
    ("ybc-set-rated-only", "expdata.py",
     "if chain_bc[-1] >= chain_ac[-1]:",
     "if True:"),
    ("ybc-detections-less-errors-as-errors", "expdata.py",
     "_phase_error_chain(n_x, summary.n_ybc, summary.m_ybc, coin, budget)",
     "_phase_error_chain(n_x, summary.n_ybc, summary.n_ybc - summary.m_ybc, coin, budget)"),
    ("golden-cycle-exit-never-taken", "finitekey.py",
     "    if bits in seen:\n        return True\n",
     ""),
    ("golden-bracket-width-unchecked", "finitekey.py",
     "    if not hi - lo < math.inf:\n"
     '        raise ParameterError("line search bracket must have a finite width")\n',
     ""),
    ("best-point-last-of-equal-rates", "rates.py",
     "            if r > best_rate:\n",
     "            if r >= best_rate:\n"),
    ("f-dropped-from-the-leak", "finitekey.py",
     "    lam_ec = n_x * ec_efficiency * h_eb_x",
     "    lam_ec = n_x * h_eb_x"),
    ("cost-sign-flipped", "finitekey.py",
     "lam_ec - budget._cost_c - budget._cost_pa",
     "lam_ec + budget._cost_c - budget._cost_pa"),
    ("log-for-log2-in-entropy", "optics.py",
     "return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)",
     "return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)"),
    ("model-y-errors-doubled", "rates.py",
     "m_y = ebx * n_y",
     "m_y = 2.0 * ebx * n_y"),
    ("wrong-overlap", "optics.py",
     "return math.exp(-mu) * (math.cos(mu) + math.sin(mu))",
     "return math.exp(-mu) * math.cos(mu)"),
    ("dark-clicks-never-err", "optics.py",
     "return q, (misalignment * lit + (1.0 - misalignment) * unlit) / q",
     "return q, misalignment * (lit + unlit) / q"),
    ("misalignment-weights-reversed", "optics.py",
     "return q, (misalignment * lit + (1.0 - misalignment) * unlit) / q",
     "return q, ((0.5 - misalignment) * lit + (0.5 + misalignment) * unlit) / q"),
    ("misalignment-ignored-in-the-simulator", "protocol.py",
     "dark, misalignment = channel.dark_count, channel.misalignment",
     "dark, misalignment = channel.dark_count, 0.0"),
    ("misalignment-on-one-detector-only", "protocol.py",
     "(1.0 - misalignment) * lone2 + misalignment * lone1, none, double)",
     "lone2, none, double)"),
    ("simulated-y-errors-doubled", "protocol.py",
     "dark, misalignment = channel.dark_count, channel.misalignment",
     "dark, misalignment = channel.dark_count, "
     "channel.misalignment * np.where((_TAG == 1) | (_TAG == 2), 2.0, 1.0)"),
    ("abort-exit-dropped", "cli.py",
     '    except ProtocolAbortError as exc:\n        print(f"abort: {exc}", file=sys.stderr)\n'
     "        return EXIT_ABORT\n",
     ""),
    ("misalignment-unchecked", "optics.py",
     "    if not 0 <= misalignment <= 0.5:\n"
     '        raise ParameterError("misalignment must be in [0, 0.5]")\n'
     "    return _gain_and_bit_error(",
     "    return _gain_and_bit_error("),
    ("empty-key-set-unchecked", "finitekey.py",
     "    if not 0 < n_x < math.inf:\n"
     '        raise ParameterError("key-set detection count must be positive and finite")\n',
     ""),
    ("gain-above-one-unchecked", "optics.py",
     "    if not gain_value <= 1.0:\n"
     '        raise ParameterError("detection gain must be in (0, 1]")\n',
     ""),
    ("y-set-slots-swapped", "roundtable.py",
     "x, ybc, yac = SetTag.X_SET, SetTag.YBC_SET, SetTag.YAC_SET",
     "x, ybc, yac = SetTag.X_SET, SetTag.YAC_SET, SetTag.YBC_SET"),
    ("sum-above-k-unchecked", "finitekey.py",
     "    if not 0 <= lam <= k:\n",
     "    if not 0 <= lam:\n"),
    ("phase-text-read-out-of-order", "expdata.py",
     "found = _TRIPLE_OF_TEXT.get((a, b, c))",
     "found = _TRIPLE_OF_TEXT.get((b, a, c))"),
    ("pulse-count-checked-for-the-observed-gain-only", "expdata.py",
     "    if q > 1.0:\n"
     '        raise ParameterError(f"sifted counts imply a gain of {q:.6g} per pulse; "\n'
     '                             f"n_pulses={n_pulses:g} is too small")\n'
     "    if channel is not None:\n",
     "    if q > 1.0 and channel is None:\n"
     '        raise ParameterError(f"sifted counts imply a gain of {q:.6g} per pulse; "\n'
     '                             f"n_pulses={n_pulses:g} is too small")\n'
     "    if channel is not None:\n"),
)


def _repository_files() -> dict:
    """Every file of the repository outside ``.git``, with its size and mtime."""
    files = {}
    for top, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in names:
            stat = os.stat(os.path.join(top, name))
            files[os.path.join(top, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


def _tier_1(tmp_path, edit=None) -> subprocess.CompletedProcess:
    """Tier-1 under ``-x`` against a copy of ``src/`` with ``edit``, a
    ``(module, old, new)`` replacement, applied; no edit runs the copy as it is."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        module, old, new = edit
        source = (PACKAGE / module).read_text()
        assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times in {module}"
        (tmp_path / "src" / "triqss" / module).write_text(source.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / ".hypothesis"))
    where = subprocess.run([sys.executable, "-c", "import triqss; print(triqss.__file__)"],
                           cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert Path(where.stdout.strip()).is_relative_to(tmp_path), where.stdout

    before = _repository_files()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "basetemp"), str(ROOT / "tests")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    after = _repository_files()
    changed = sorted(os.path.relpath(path, ROOT) for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    # an edit made elsewhere during the run also lands here: the list tells them apart
    assert not changed, ("the repository changed during the tier-1 run (a write by the "
                         "run, or an edit made meanwhile): " + ", ".join(changed))
    return run


def test_unmutated_copy_passes_tier_1(tmp_path):
    # the control: a failure below must come from its edit, not from the copy
    run = _tier_1(tmp_path)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


@pytest.mark.parametrize("edit", [row[1:] for row in MUTATIONS], ids=[row[0] for row in MUTATIONS])
def test_mutation_fails_tier_1(tmp_path, edit):
    run = _tier_1(tmp_path, edit)
    assert run.returncode == 1, run.stdout[-3000:] + run.stderr[-3000:]
