"""Static columns of the round table, in plain Python.

A round's settings form one of 32 cells
``s_a | s_b << 1 | basis_a << 2 | basis_b << 3 | basis_c << 4``.  Each
column below holds one value per cell: the quarter-turn phase codes, the
set the announced bases sift the round into, and the dealer's correct raw
bit.  The simulator turns these columns into arrays; the count-table reader
reads them as they are.  Nothing here needs numpy, so the analysis
commands start without it.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["Basis", "SetTag", "CELL_QUARTERS", "CELL_TAG", "CELL_BIT", "set_shares"]


class Basis(IntEnum):
    X = 0
    Y = 1


class SetTag(IntEnum):
    X_SET = 0
    YBC_SET = 1
    YAC_SET = 2
    DISCARD = 3


# quarter-turn phase codes (units of pi/2): players send X bits as 0, 2 and
# Y bits as 3, 1; the dealer adds 0 (X) or 1 (Y) on player b's arm
_PLAYER_QUARTER = ((0, 2), (3, 1))   # [basis][bit]

# the bases that sift a detected round into each set
_SET_OF_BASES = {
    (Basis.X, Basis.X, Basis.X): SetTag.X_SET,
    (Basis.X, Basis.Y, Basis.Y): SetTag.YBC_SET,
    (Basis.Y, Basis.X, Basis.Y): SetTag.YAC_SET,
}

_CELLS = range(32)

CELL_QUARTERS = (
    tuple(_PLAYER_QUARTER[cell >> 2 & 1][cell & 1] for cell in _CELLS),
    tuple(_PLAYER_QUARTER[cell >> 3 & 1][cell >> 1 & 1] for cell in _CELLS),
    tuple(cell >> 4 & 1 for cell in _CELLS),
)
CELL_TAG = tuple(
    _SET_OF_BASES.get((cell >> 2 & 1, cell >> 3 & 1, cell >> 4 & 1), SetTag.DISCARD)
    for cell in _CELLS
)
# the bit a sifted round registers on clean hardware: its net quarter turns
# are even, 0 -> bit 0 and 2 -> bit 1; this is s_a ^ s_b, flipped on YAC cells
CELL_BIT = tuple((q_b + q_c - q_a) % 4 >> 1 for q_a, q_b, q_c in zip(*CELL_QUARTERS))


def set_shares(px: float) -> tuple[float, float]:
    """Shares of all rounds announced in the X set and in each checked Y set."""
    return px ** 3, px * (1.0 - px) ** 2
