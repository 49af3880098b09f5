"""Write the golden-output corpus of ``tests/golden/``.

    python tests/regenerate_golden.py          # every entry
    python tests/regenerate_golden.py NAME...  # the named entries only

The file name keeps it out of the default test collection.  Each entry is
``tests/golden/NAME.json``: a command's argv, its exit code, and its full
stdout and stderr as lists of lines, from ``cli.main`` run in process with
the repository root as the working directory (``run``, which
``tests/test_golden.py`` uses too).  Rewriting an entry is how a declared
output change lands; it is never a way to make an undeclared change pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

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
                          ("1e80", "100", "50")):
        commands[f"sweep_N{n}_L0_{lmax}_step{step}"] = [
            "sweep", "--N", n, "--Lmin", "0", "--Lmax", lmax, "--step", step]
    commands["sweep_Ninf"] = ["sweep", "--N", "inf"]
    return commands


COMMANDS = _commands()


def run(argv) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)`` in process."""
    from triqss import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(names) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    for name in names or COMMANDS:
        argv = COMMANDS[name]
        code, out, err = run(argv)
        entry = {"argv": argv, "exit": code,
                 "stdout": out.splitlines(keepends=True),
                 "stderr": err.splitlines(keepends=True)}
        (GOLDEN / f"{name}.json").write_text(json.dumps(entry, indent=1) + "\n")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
