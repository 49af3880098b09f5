"""Per-row reference for the trace writer.

It formats every row with its own f-string, as the writer did before rows
were assembled as bytes, and draws the no-click cells the same way (in
round order from the trace's generator, by binary search), so a run with it
in place of ``protocol._TraceWriter`` must write the same file byte for
byte.
"""

from itertools import count

import numpy as np

from triqss import protocol
from triqss.protocol import _BASES, _S_A, _S_B, Outcome
from triqss.roundtable import CELL_TAG, SetTag

_OUTCOME_NAMES = ("zero", "one", "none", "double")
_TAG_NAMES = ("X", "YBC", "YAC", "DISCARD")
HEADER = "i,s_a,s_b,basis_a,basis_b,basis_c,outcome,s_c,set_tag\r\n"


def row_text(key: int) -> str:
    """Trace row after the index for ``key = cell | outcome << 5 | s_c << 7``."""
    cell, outcome, s_c = key & 31, key >> 5 & 3, key >> 7
    if outcome == Outcome.NONE:
        bit, tag = "", SetTag.DISCARD
    else:
        bit, tag = s_c, CELL_TAG[cell]
    bases = ",".join("XY"[b[cell]] for b in _BASES)
    return (f"{_S_A[cell]},{_S_B[cell]},{bases},{_OUTCOME_NAMES[outcome]},"
            f"{bit},{_TAG_NAMES[tag]}\r\n")


_ROW_TEXT = np.array([row_text(key) for key in range(256)], dtype=object)


class PerRowTraceWriter:
    """Drop-in for ``protocol._TraceWriter`` on a file opened ``"wb"``."""

    def __init__(self, fh, rng: np.random.Generator, none_cdf: np.ndarray,
                 none_guide: np.ndarray = None):
        self._fh, self._rng, self._none_cdf = fh, rng, none_cdf
        self.written = 0
        fh.write(HEADER.encode())

    def write(self, end: int, pos: np.ndarray = protocol._NO_DETECTIONS,
              cat: np.ndarray = protocol._NO_DETECTIONS) -> None:
        start = self.written
        keys = np.searchsorted(self._none_cdf, self._rng.random(end - start), side="right")
        keys |= Outcome.NONE << 5
        lo, hi = np.searchsorted(pos, (start, end))
        keys[pos[lo:hi] - start] = protocol._CAT_ROW[cat[lo:hi]]
        self._fh.write("".join(
            f"{i},{text}" for i, text in zip(count(start), _ROW_TEXT[keys].tolist())
        ).encode())
        self.written = end
