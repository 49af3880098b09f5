"""Static columns of the round table, and the set tallies, in plain Python.

A round's settings form one of 32 cells
``s_a | s_b << 1 | basis_a << 2 | basis_b << 3 | basis_c << 4``; this is the
only module that knows that layout.  Each column below holds one value per
cell: the quarter-turn phase codes (``CELL_QUARTERS``), the net quarter
turns between the arms, which split the light between the detectors
(``CELL_TURNS``), the set the announced bases sift the round into
(``CELL_TAG``), and the dealer's correct raw bit (``CELL_BIT``).  The
simulator turns these columns into arrays; the count-table reader reads
them as they are.  Both reduce their clicks to per-set sums indexed by
:class:`SetTag`, and :meth:`SetCounts._of_sums` is the one map from those
slots to the tally fields.  Nothing here needs numpy, so the analysis
commands start without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


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

# the settings columns, bit i of the cell for setting i: s_a, s_b, basis_a,
# basis_b, basis_c; private to the package, and read by the simulator too
_SETTINGS = tuple(tuple(cell >> i & 1 for cell in range(32)) for i in range(5))
_S_A, _S_B, *_BASES = _SETTINGS

CELL_QUARTERS = (
    tuple(_PLAYER_QUARTER[b][s] for b, s in zip(_BASES[0], _S_A)),
    tuple(_PLAYER_QUARTER[b][s] for b, s in zip(_BASES[1], _S_B)),
    _BASES[2],
)
CELL_TAG = tuple(_SET_OF_BASES.get(bases, SetTag.DISCARD) for bases in zip(*_BASES))
# net quarter turns, b's phase plus the dealer's less a's: detector 1 gets
# all the light at 0, none at 2 and half at 1 or 3
CELL_TURNS = tuple((q_b + q_c - q_a) % 4 for q_a, q_b, q_c in zip(*CELL_QUARTERS))
# the bit a sifted round registers on clean hardware: its net quarter turns
# are even, 0 -> bit 0 and 2 -> bit 1; this is s_a ^ s_b, flipped on YAC cells
CELL_BIT = tuple(turns >> 1 for turns in CELL_TURNS)


def set_shares(px: float) -> tuple[float, float]:
    """Shares of all rounds announced in the X set and in each checked Y set."""
    return px ** 3, px * (1.0 - px) ** 2


@dataclass(frozen=True)
class SetCounts:
    """Detections ``n_*`` and errors ``m_*`` in the X set and the two checked Y sets."""

    n_x: int = 0
    m_x: int = 0
    n_ybc: int = 0
    m_ybc: int = 0
    n_yac: int = 0
    m_yac: int = 0

    @classmethod
    def _of_sums(cls, n, m, **extra):
        """The tallies of detection sums ``n`` and error sums ``m``, each
        indexed by :class:`SetTag`, whose ``DISCARD`` slot is not read;
        ``extra`` gives a subclass's own fields."""
        x, ybc, yac = SetTag.X_SET, SetTag.YBC_SET, SetTag.YAC_SET
        return cls(n_x=n[x], m_x=m[x], n_ybc=n[ybc], m_ybc=m[ybc], n_yac=n[yac], m_yac=m[yac],
                   **extra)

    @property
    def n_y(self) -> int:
        return self.n_ybc + self.n_yac

    @property
    def eb_x(self) -> float:
        return self.m_x / self.n_x

    @property
    def eb_ybc(self) -> float:
        return self.m_ybc / self.n_ybc

    @property
    def eb_yac(self) -> float:
        return self.m_yac / self.n_yac
