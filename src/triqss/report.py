"""Flat ``key = value`` report and config format.

Reports and config files share one line-oriented format: one ``key = value``
pair per line, ``#`` starts a comment, blank lines are ignored.  Floats are
rendered with ten significant digits so that re-parsing a report reproduces
the numbers that were measured.  Config files and count tables are read as
UTF-8 by :func:`read_utf8`, up to ``MAX_INPUT_BYTES`` each.
"""

from __future__ import annotations

import errno
import os

from .errors import ParameterError

# the most bytes read from one config file or count table; a count table
# holds at most 128 phase triples, in about 400 bytes for each Table III
# table.  The read allocates the limit, which past about 128 KiB made reading
# a small file several times slower
MAX_INPUT_BYTES = 2 ** 16


def fmt_value(value) -> str:
    """Render a value for a report line (floats at 10 significant digits)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def render_kv(mapping) -> str:
    """Render an ordered mapping as ``key = value`` lines."""
    return "".join(f"{key} = {fmt_value(value)}\n" for key, value in mapping.items())


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a string-to-string dict.

    Values keep their textual form; callers convert types themselves.  A
    key given twice is an error, since either value could be the one meant.
    Lines end in ``\\n``, ``\\r\\n`` or ``\\r`` and are numbered as
    :func:`read_utf8` numbers them.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParameterError(f"config line {lineno}: empty key")
        if key in first_line:
            raise ParameterError(
                f"config line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def read_utf8(path, error) -> str:
    """The text of the file at ``path``, read as UTF-8, without a leading
    byte-order mark.

    At the first byte that is not UTF-8 this raises ``error(message, line)``;
    lines end in ``\\n``, ``\\r\\n`` or ``\\r``, as the count-table reader splits them.
    A file of more than ``MAX_INPUT_BYTES`` bytes raises ``OSError`` (``EFBIG``)
    naming ``path``, after reading one byte past the limit.
    """
    with open(path, "rb") as fh:
        data = fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise OSError(errno.EFBIG, f"more than the {MAX_INPUT_BYTES}-byte input limit",
                      os.fspath(path))
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"not valid UTF-8: byte 0x{data[exc.start]:02x}", line) from None
