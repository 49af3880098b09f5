"""The golden-output corpus: each command of ``tests/golden/`` prints what
its entry holds, byte for byte, writes the files it records, and exits with
its code.

An entry holds a command's argv, exit code, and full stdout and stderr as
lists of lines, and the sha256 and line count of each file it writes;
``python tests/regenerate_golden.py`` writes them, and its ``run`` runs each
entry here too: in process through ``cli.main``, in a fresh temporary
directory that links ``fixtures/``, so that the table paths it echoes are
the relative ones of its argv.  ``--check PREFIX`` runs the same entries
through an installed executable.
"""

from pathlib import Path

import pytest

import regenerate_golden

ENTRIES = sorted(regenerate_golden.GOLDEN.glob("*.json"))


def test_corpus_holds_an_entry_per_command():
    assert [path.stem for path in ENTRIES] == sorted(regenerate_golden.COMMANDS)


@pytest.mark.parametrize("path", ENTRIES, ids=[path.stem for path in ENTRIES])
def test_command_prints_its_entry(path: Path):
    entry = regenerate_golden.entry(path.stem)
    assert entry["argv"] == regenerate_golden.COMMANDS[path.stem]
    got = regenerate_golden.run(entry["argv"])
    assert not regenerate_golden.differences(entry, got), "".join(
        regenerate_golden.differences(entry, got))
