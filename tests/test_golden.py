"""The golden-output corpus: each command of ``tests/golden/`` prints what
its entry holds, byte for byte, and exits with its code.

An entry holds a command's argv, exit code, and full stdout and stderr as
lists of lines; ``python tests/regenerate_golden.py`` writes them, and its
``run`` runs each entry here too: in process through ``cli.main``, from the
repository root, so that the table paths it echoes are the relative ones of
its argv.
"""

import json
from pathlib import Path

import pytest

import regenerate_golden

ENTRIES = sorted(regenerate_golden.GOLDEN.glob("*.json"))


def test_corpus_holds_an_entry_per_command():
    assert [path.stem for path in ENTRIES] == sorted(regenerate_golden.COMMANDS)


@pytest.mark.parametrize("path", ENTRIES, ids=[path.stem for path in ENTRIES])
def test_command_prints_its_entry(path: Path, monkeypatch):
    entry = json.loads(path.read_text())
    assert entry["argv"] == regenerate_golden.COMMANDS[path.stem]
    monkeypatch.chdir(regenerate_golden.ROOT)
    code, out, err = regenerate_golden.run(entry["argv"])
    assert out == "".join(entry["stdout"])
    assert err == "".join(entry["stderr"])
    assert code == entry["exit"]
