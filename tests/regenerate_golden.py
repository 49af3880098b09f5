"""Write, or check, the golden-output corpus of ``tests/golden/``.

    python tests/regenerate_golden.py                     # write every entry
    python tests/regenerate_golden.py NAME...             # write the named entries
    python tests/regenerate_golden.py --check PREFIX      # run every entry through PREFIX
    python tests/regenerate_golden.py --check PREFIX NAME...

The file name keeps it out of the default test collection.  Each entry is
``tests/golden/NAME.json``: a command's argv, its exit code, and its full
stdout and stderr as lists of lines; a file that the command writes, such
as a ``--trace``, is kept as its sha256 and line count under ``files``.
``run`` runs an entry: in process through ``cli.main``, or through a
command prefix such as ``triqss`` or ``python -m triqss.cli`` (one
argument, split as a shell would).  Either way it runs in a fresh
temporary directory that links ``fixtures/`` from the repository, so the
table paths an entry echoes are the relative ones of its argv and no run
writes into the repository, with ``COLUMNS=80`` for the help texts.
``tests/test_golden.py`` runs every entry in process; ``--check`` runs
them all through the prefix and prints each difference.  Writing entries
always runs in process.  Rewriting an entry is how a declared output change
lands; it is never a way to make an undeclared change pass.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

TABLES = sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("tableIII*_mu*.csv"))


def _commands() -> dict:
    """Entry name -> argv."""
    commands = {
        "analyze_nine": ["analyze", *TABLES],
        "analyze_nine_N5e10": ["analyze", *TABLES, "--N", "5e10"],
        "analyze_nine_analytic_gain": ["analyze", *TABLES, "--analytic-gain"],
    }
    for table in TABLES:
        for n in ("1e9", "5e10", "1e12"):
            commands[f"analyze_{Path(table).stem}_N{n}"] = ["analyze", table, "--N", n]
    for k, half in (("1", "0.5"), ("1e6", "5e5"), ("1e40", "5e39"), ("1e76", "5e75")):
        for lam_name, lam in (("0", "0"), ("half", half), ("k", k)):
            for direction in ("upper", "lower"):
                commands[f"kato_{direction}_k{k}_lam_{lam_name}"] = [
                    "kato", "--k", k, "--lam", lam, "--dir", direction]
    for n, lmax, step in (("1e10", "260", "5"), ("1e8", "400", "5"), ("1e12", "400", "5"),
                          ("1e80", "100", "50"), ("1e77", "100", "50"), ("1e8", "300", "10")):
        commands[f"sweep_N{n}_L0_{lmax}_step{step}"] = [
            "sweep", "--N", n, "--Lmin", "0", "--Lmax", lmax, "--step", step]
    commands["sweep_Ninf"] = ["sweep", "--N", "inf"]
    commands.update({
        "sweep_Ninf_L250_280_step10": [
            "sweep", "--N", "inf", "--Lmin", "250", "--Lmax", "280", "--step", "10"],
        "sweep_N1e10_L0_0_fe1e308": [
            "sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "0", "--step", "1", "--fe", "1e308"],
        "analyze_tableIIIa_mu9e-4": ["analyze", "fixtures/tableIIIa_mu9e-4.csv"],
        "analyze_tableIIIb_mu8e-4_analytic_gain_10km": [
            "analyze", "fixtures/tableIIIb_mu8e-4.csv", "--analytic-gain", "--length-km", "10"],
        "kato_lower_k1e6_lam2e5_eps1e-10": [
            "kato", "--k", "1e6", "--lam", "2e5", "--eps", "1e-10", "--dir", "lower"],
        "simulate_threshold_readme": [
            "simulate", "--seed", "7", "--nx", "5000", "--nybc", "50", "--nyac", "50",
            "--max-rounds", "1e9", "--mu", "9e-4", "--px", "0.9", "--loss-db", "30"],
        "simulate_seed3_1e6_30dB": [
            "simulate", "--seed", "3", "--rounds", "1000000", "--loss-db", "30"],
        "simulate_trace_readme": [
            "simulate", "--seed", "7", "--rounds", "20000", "--length-km", "0",
            "--trace", "rounds.csv"],
        "simulate_trace_dense": [
            "simulate", "--seed", "9", "--rounds", "30000", "--length-km", "0",
            "--mu", "0.3", "--px", "0.7", "--trace", "dense.csv"],
        "simulate_trace_30dB": [
            "simulate", "--seed", "7", "--rounds", "1000000", "--mu", "9e-4", "--px", "0.9",
            "--loss-db", "30", "--trace", "trace_30db.csv"],
        "help": ["--help"],
        "help_analyze": ["analyze", "--help"],
        "help_kato": ["kato", "-h"],
        "exit3_no_command": [],
        "exit3_unknown_command": ["frob"],
        "exit3_extra_argument": ["kato", "--k", "1", "--lam", "1", "extra"],
        "exit3_rounds_with_max_rounds": [
            "simulate", "--seed", "7", "--rounds", "100000", "--nx", "5", "--nybc", "1",
            "--nyac", "1", "--max-rounds", "1e9", "--length-km", "0"],
        "exit3_sweep_eps_a": ["sweep", "--N", "inf", "--eps-a", "0.3"],
        "exit4_sweep_N1e100": ["sweep", "--N", "1e100", "--Lmin", "0", "--Lmax", "0",
                               "--step", "1"],
    })
    # sifted counts that no --N 1e5 pulses can give, rated with the model gain
    analytic = ["analyze", "fixtures/tableIIIa_mu9e-4.csv", "--analytic-gain", "--N"]
    commands.update({
        "exit3_analytic_gain_N1e5": [*analytic, "1e5"],
        "exit3_analytic_gain_N5e-324": [*analytic, "5e-324"],
        "exit3_analytic_gain_N5e-324_rep_rate": [*analytic, "5e-324", "--rep-rate", "1e-300"],
        # 5e-324 pulses give 0 rounds once scaled by the sifted share at px 0.5
        "exit3_analyze_N5e-324_px0.5": [
            "analyze", "fixtures/tableIIIa_mu9e-4.csv", "--N", "5e-324", "--mu", "9e-4",
            "--px", "0.5"],
    })
    return commands


COMMANDS = _commands()


def entry(name: str) -> dict:
    """The entry ``name`` as recorded."""
    return json.loads((GOLDEN / f"{name}.json").read_text())


def stdout(name: str) -> str:
    """The recorded stdout of the entry ``name``."""
    return "".join(entry(name)["stdout"])


@contextlib.contextmanager
def _working_directory(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def _in_process(argv) -> tuple[int, str, str]:
    from triqss import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse: help, usage errors
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def run(argv, prefix=None) -> dict:
    """The entry that ``argv`` gives now: run in process through ``cli.main``,
    or as a subprocess after the argv list ``prefix``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "fixtures").symlink_to(ROOT / "fixtures")
        if prefix is None:
            with _working_directory(work), mock.patch.dict(os.environ, COLUMNS="80"):
                code, out, err = _in_process(argv)
        else:
            proc = subprocess.run([*prefix, *argv], cwd=work, capture_output=True,
                                  env=dict(os.environ, COLUMNS="80"), timeout=600)
            code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        files = {}
        for path in sorted(work.iterdir()):
            if path.name != "fixtures":
                data = path.read_bytes()
                files[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                    "lines": data.count(b"\n")}
    got = {"argv": list(argv), "exit": code,
           "stdout": out.splitlines(keepends=True), "stderr": err.splitlines(keepends=True)}
    if files:
        got["files"] = files
    return got


def differences(expected: dict, got: dict) -> list[str]:
    """Where ``got`` departs from ``expected``: a unified diff of each
    stream, then the exit codes and written files; empty when they agree."""
    lines = []
    for stream in ("stdout", "stderr"):
        lines += difflib.unified_diff(expected[stream], got[stream],
                                      f"{stream} expected", f"{stream} got")
    if got["exit"] != expected["exit"]:
        lines.append(f"exit {got['exit']}, expected {expected['exit']}\n")
    if got.get("files") != expected.get("files"):
        lines.append(f"files {got.get('files')}, expected {expected.get('files')}\n")
    return lines


def _write(names) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    for name in names or COMMANDS:
        got = run(COMMANDS[name])
        (GOLDEN / f"{name}.json").write_text(json.dumps(got, indent=1) + "\n")
        print(f"{name}: exit {got['exit']}")


def _check(prefix, names) -> int:
    failed = 0
    for name in names or COMMANDS:
        diff = differences(entry(name), run(COMMANDS[name], prefix))
        if diff:
            failed += 1
            sys.stdout.writelines([f"{name}: differs\n", *diff])
    print(f"{len(names or COMMANDS) - failed} of {len(names or COMMANDS)} entries match")
    return 1 if failed else 0


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="PREFIX",
                        help="run the entries through this command prefix, e.g. triqss")
    parser.add_argument("names", nargs="*", metavar="NAME")
    ns = parser.parse_args(args)
    if ns.check is None:
        _write(ns.names)
        return 0
    return _check(shlex.split(ns.check), ns.names)


if __name__ == "__main__":
    sys.exit(main())
