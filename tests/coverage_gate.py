"""Coverage gate: every statement of ``src/triqss`` must run under tier-1.

    python -m pytest tests/coverage_gate.py

The file name keeps it out of the default test collection, as with
``tests/mutations.py``.  The gate starts one interpreter that installs a
``sys.settrace`` line collector before anything imports ``triqss``, and
runs the tier-1 suite in process under it.  A statement ran when a line
event fired on one of its lines; a compound statement's lines include its
blocks, which cannot run without it.  Docstrings and ``global`` and
``nonlocal`` declarations are skipped, since they produce no line event.

The gate fails on each statement that never ran and is missing from
``ALLOWED``, and on each ``ALLOWED`` entry whose statement now runs.  A
failure lists one statement per line as ``module:line [function] text``.
An entry is keyed by module, enclosing function and the statement's text
with its whitespace collapsed, not by line number, and each gives the
reason why tier-1 cannot run it in process.  Code that only a subprocess
reaches is invisible to the collector, so its tests live in tier-1 and its
statements here.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triqss"

_SUBPROCESS = "reached only by a subprocess test"
# (module, enclosing function, statement text) -> reason
ALLOWED = {
    ("cli.py", "_write_stdout",
     'raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")'):
        _SUBPROCESS + " with fd 1 closed (`>&-`), since Python sets sys.stdout "
        "to None only at start-up",
    ("cli.py", "_write_stdout", 'with open(os.devnull, "wb") as devnull:'):
        _SUBPROCESS + " writing to /dev/full; pytest's capture never fails a write",
    ("cli.py", "_write_stdout", "os.dup2(devnull.fileno(), sys.stdout.fileno())"):
        _SUBPROCESS + " writing to /dev/full; in process it would point the "
        "test runner's stdout at the null device",
    ("cli.py", "_write_stdout", "raise"):
        _SUBPROCESS + " writing to /dev/full",
    ("cli.py", "<module>", "sys.exit(main())"):
        _SUBPROCESS + " through `python -m triqss.cli`",
}


def _docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: Path):
    """``(line, lines, function, text)`` of each statement, where ``lines``
    runs from its first decorator to its last line and ``text`` is a compound
    statement's first line: a block cannot run before its header."""
    source = path.read_text()
    found = []

    def visit(body, function, scope):
        for i, node in enumerate(body):
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (scope and i == 0
                                                                 and _docstring(node)):
                continue
            text = ast.get_source_segment(source, node)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            blocks = [getattr(node, b) for b in _BLOCKS if getattr(node, b, None)]
            if blocks:
                text = text.splitlines()[0]
            found.append((node.lineno, range(first, node.end_lineno + 1), function,
                          " ".join(text.split())))
            inner = function
            if isinstance(node, _SCOPES):
                inner = node.name if function == "<module>" else f"{function}.{node.name}"
            for block in blocks:
                if isinstance(block[0], ast.stmt):
                    visit(block, inner, isinstance(node, _SCOPES))
                else:   # except clauses and match cases
                    for clause in block:
                        visit(clause.body, inner, False)

    visit(ast.parse(source).body, "<module>", True)
    return found


def unexecuted(executed: dict) -> list:
    """``(module, line, function, text)`` of each statement that never ran,
    given the executed line numbers of each module."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = set(executed.get(path.name, ()))
        for line, lines, function, text in statements(path):
            if ran.isdisjoint(lines):
                missing.append((path.name, line, function, text))
    return missing


def collect(out: str, pytest_args: list) -> int:
    """Run pytest under the line collector; write the executed lines of each
    module of the package to ``out`` as JSON, and return pytest's exit code."""
    prefix = str(PACKAGE) + os.sep
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    by_module = {}
    for filename, line in executed:
        by_module.setdefault(os.path.basename(filename), []).append(line)
    Path(out).write_text(json.dumps(by_module))
    return int(code)


def test_every_statement_runs_or_is_allowed(tmp_path):
    out = tmp_path / "executed.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / ".hypothesis"))
    run = subprocess.run(
        [sys.executable, __file__, str(out), "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "basetemp"), str(ROOT / "tests")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=900,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    missing = unexecuted(json.loads(out.read_text()))

    unexpected = [m for m in missing if (m[0], m[2], m[3]) not in ALLOWED]
    stale = set(ALLOWED) - {(m[0], m[2], m[3]) for m in missing}
    report = [f"never ran under tier-1: {m[0]}:{m[1]} [{m[2]}] {m[3]}" for m in unexpected]
    report += [f"allowed but ran: {key[0]} [{key[1]}] {key[2]}" for key in sorted(stale)]
    assert not report, "\n".join(report)


if __name__ == "__main__":
    sys.exit(collect(sys.argv[1], sys.argv[2:]))
