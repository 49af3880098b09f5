"""Round-level simulation of the three-user secret sharing protocol.

Each round the two players (a and b) pick a random bit and a random basis,
encode them as pulse phases, and the dealer (c) picks a basis and adds the
matching phase offset on player b's arm before the beam splitter.  Detector
1 fires on constructive interference (relative phase 0) and yields dealer
bit 0; detector 2 fires at relative phase pi and yields bit 1.  A round with
no click is discarded; a double click is kept and resolved to a uniformly
random bit.

Detected rounds are sifted by the announced bases into three sets:

- ``X_SET``: all three chose X; produces key bits.
- ``YBC_SET``: player b and the dealer chose Y, player a chose X.
- ``YAC_SET``: player a and the dealer chose Y, player b chose X.  The
  interference condition is inverted in this set, so the dealer flips his
  bit there.

In every sifted set the dealer's bit, after the YAC flip, should equal the
XOR of the players' bits; disagreements are tallied as errors.

Everything a round does follows from the round table: one row per setting
cell ``s_a | s_b << 1 | basis_a << 2 | basis_b << 3 | basis_c << 4``.  Its
static columns hold the quarter-turn phase codes, the set tag and the
dealer's correct raw bit (``s_a ^ s_b``, flipped on YAC cells, so the YAC
flip is a column); :func:`outcome_thresholds` adds the cumulative outcome
probabilities for one source and channel.  The simulator, the trace writer
and the count-table reader all read this table.

``run_protocol`` simulates in fixed blocks of ``BLOCK_ROUNDS`` (1e6) rounds,
each driven by the next spawned child of the master seed.  The round stream
is defined by the seed alone: a run stopped early is a prefix of a longer
run with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import count
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ProtocolAbortError
from .optics import ChannelModel, SourceParams, gain, transmittance

__all__ = [
    "Basis",
    "Outcome",
    "SetTag",
    "SetThresholds",
    "ClickProbabilities",
    "SiftedTallies",
    "ProtocolRun",
    "BLOCK_ROUNDS",
    "CELL_QUARTERS",
    "CELL_TAG",
    "CELL_BIT",
    "encode_player_phase",
    "dealer_phase",
    "click_probabilities",
    "outcome_thresholds",
    "set_shares",
    "run_protocol",
    "verify_correlation",
]

# rounds per block; each block draws from its own child of the master seed
BLOCK_ROUNDS = 1_000_000


class Basis(IntEnum):
    X = 0
    Y = 1


class Outcome(IntEnum):
    ZERO = 0
    ONE = 1
    NONE = 2
    DOUBLE = 3


class SetTag(IntEnum):
    X_SET = 0
    YBC_SET = 1
    YAC_SET = 2
    DISCARD = 3


class ClickProbabilities(NamedTuple):
    """Distribution over registered round outcomes; sums to one."""

    only0: float
    only1: float
    none: float
    double: float


@dataclass(frozen=True)
class SetThresholds:
    """Target detection counts per sifted set for a threshold-driven run."""

    n_x: int
    n_ybc: int
    n_yac: int

    def __post_init__(self):
        if min(self.n_x, self.n_ybc, self.n_yac) < 1:
            raise ParameterError("set thresholds must be at least 1")


@dataclass(frozen=True)
class SiftedTallies:
    """Detection and error counts per sifted set, plus rounds consumed."""

    n_x: int = 0
    m_x: int = 0
    n_ybc: int = 0
    m_ybc: int = 0
    n_yac: int = 0
    m_yac: int = 0
    rounds: int = 0

    @property
    def n_y(self) -> int:
        return self.n_ybc + self.n_yac

    def merged(self, other: "SiftedTallies") -> "SiftedTallies":
        return SiftedTallies(
            n_x=self.n_x + other.n_x, m_x=self.m_x + other.m_x,
            n_ybc=self.n_ybc + other.n_ybc, m_ybc=self.m_ybc + other.m_ybc,
            n_yac=self.n_yac + other.n_yac, m_yac=self.m_yac + other.m_yac,
            rounds=self.rounds + other.rounds,
        )


@dataclass(frozen=True)
class ProtocolRun:
    """Result of :func:`run_protocol`: tallies plus the raw key bit triples."""

    tallies: SiftedTallies
    key_a: np.ndarray
    key_b: np.ndarray
    key_c: np.ndarray
    rounds_used: int
    seed: int


# quarter-turn phase codes (units of pi/2): players send X bits as 0, 2 and
# Y bits as 3, 1; the dealer adds 0 (X) or 1 (Y) on player b's arm
_QUARTER_TURN = 0.5 * math.pi
_PLAYER_QUARTER = np.array([[0, 2], [3, 1]])   # [basis, bit]

# the bases that sift a detected round into each set
_SET_OF_BASES = {
    (Basis.X, Basis.X, Basis.X): SetTag.X_SET,
    (Basis.X, Basis.Y, Basis.Y): SetTag.YBC_SET,
    (Basis.Y, Basis.X, Basis.Y): SetTag.YAC_SET,
}


# round table rows: cell = s_a | s_b << 1 | basis_a << 2 | basis_b << 3 | basis_c << 4
_CELLS = np.arange(32, dtype=np.uint8)
_S_A, _S_B = _CELLS & 1, _CELLS >> 1 & 1
_BASES = (_CELLS >> 2 & 1, _CELLS >> 3 & 1, _CELLS >> 4 & 1)

# static columns of the round table
CELL_QUARTERS = (
    _PLAYER_QUARTER[_BASES[0], _S_A],
    _PLAYER_QUARTER[_BASES[1], _S_B],
    _BASES[2].astype(int),
)
CELL_TAG = np.array(
    [_SET_OF_BASES.get(bases, SetTag.DISCARD) for bases in zip(*_BASES)], dtype=np.uint8,
)
# the bit a sifted round registers on clean hardware: its net quarter turns
# are even, 0 -> bit 0 and 2 -> bit 1; this is s_a ^ s_b, flipped on YAC cells
CELL_BIT = ((CELL_QUARTERS[1] + CELL_QUARTERS[2] - CELL_QUARTERS[0]) % 4 >> 1).astype(np.uint8)

_CELL_PHASE_A = CELL_QUARTERS[0] * _QUARTER_TURN
_CELL_PHASE_B = CELL_QUARTERS[1] * _QUARTER_TURN + CELL_QUARTERS[2] * _QUARTER_TURN


def encode_player_phase(basis: Basis, bit: int) -> float:
    """Pulse phase a player applies for a given basis and bit."""
    if bit not in (0, 1):
        raise ParameterError("bit must be 0 or 1")
    return int(_PLAYER_QUARTER[basis, bit]) * _QUARTER_TURN


def dealer_phase(basis: Basis) -> float:
    """Phase offset the dealer adds on player b's arm for his basis choice."""
    return int(basis) * _QUARTER_TURN


def set_shares(px: float) -> tuple[float, float]:
    """Shares of all rounds announced in the X set and in each checked Y set."""
    return px ** 3, px * (1.0 - px) ** 2


def click_probabilities(
    phase_a,
    phase_b,
    mu: float,
    eta: float,
    dark: float,
    misalignment: float,
) -> ClickProbabilities:
    """Outcome distribution for rounds at given total arm phases.

    ``phase_b`` is the total phase on player b's arm (encoding plus dealer
    offset); the phases may be floats or arrays.  The two output ports
    receive mean photon numbers ``2 mu eta cos^2(dphi/2)`` and the rest of
    ``2 mu eta``; each detector additionally fires independently with the
    dark count probability, and a lone signal click is swapped to the other
    detector with probability ``misalignment``.
    """
    if mu < 0 or eta < 0 or not 0 <= dark < 1 or not 0 <= misalignment <= 0.5:
        raise ParameterError("click model arguments out of range")
    dphi = np.subtract(phase_b, phase_a)
    mu_eta = 2.0 * mu * eta
    i1 = mu_eta * np.cos(0.5 * dphi) ** 2
    i2 = mu_eta - i1
    quiet1 = (1.0 - dark) * np.exp(-i1)
    quiet2 = (1.0 - dark) * np.exp(-i2)
    raw0 = (1.0 - quiet1) * quiet2
    raw1 = (1.0 - quiet2) * quiet1
    return ClickProbabilities(
        only0=(1.0 - misalignment) * raw0 + misalignment * raw1,
        only1=(1.0 - misalignment) * raw1 + misalignment * raw0,
        none=quiet1 * quiet2,
        double=(1.0 - quiet1) * (1.0 - quiet2),
    )


def outcome_thresholds(source: SourceParams, channel: ChannelModel) -> tuple:
    """Per-cell cumulative outcome probabilities ``p0``, ``p0+p1``, ``p0+p1+pn``.

    A round in cell ``c`` with outcome variate ``u`` registers outcome
    ``(u >= t0[c]) + (u >= t1[c]) + (u >= t2[c])`` in :class:`Outcome` order.
    """
    p = click_probabilities(
        _CELL_PHASE_A, _CELL_PHASE_B, source.intensity, transmittance(channel),
        channel.dark_count, channel.misalignment,
    )
    t0 = p.only0
    t1 = t0 + p.only1
    return t0, t1, t1 + p.none


class _Block(NamedTuple):
    """Per-round arrays for one simulated block."""

    cell: np.ndarray
    outcome: np.ndarray
    s_c: np.ndarray      # registered dealer bit, before any YAC flip
    tag: np.ndarray      # set tag; DISCARD when nothing clicked
    err: np.ndarray      # detected and s_c differs from the cell's correct bit


def _simulate_block(
    source: SourceParams,
    channel: ChannelModel,
    rng: np.random.Generator,
    n: int,
) -> _Block:
    """Vectorized simulation of ``n`` rounds on one generator.

    Stream layout per block: player bits, then the three basis variates,
    then the outcome variate, then resolution bits for every round.
    """
    s_a = rng.integers(0, 2, n, dtype=np.uint8)
    s_b = rng.integers(0, 2, n, dtype=np.uint8)
    b_a, b_b, b_c = ((rng.random(n) >= source.px).view(np.uint8) for _ in range(3))
    cell = s_a | s_b << 1 | b_a << 2 | b_b << 3 | b_c << 4
    u = rng.random(n)
    resolve = rng.integers(0, 2, n, dtype=np.uint8)

    t0, t1, t2 = outcome_thresholds(source, channel)
    outcome = (u >= t0[cell]).view(np.uint8) + (u >= t1[cell]) + (u >= t2[cell])
    detected = outcome != Outcome.NONE
    s_c = np.where(outcome < Outcome.NONE, outcome, resolve)
    tag = np.where(detected, CELL_TAG[cell], np.uint8(SetTag.DISCARD))
    err = detected & (s_c != CELL_BIT[cell])
    return _Block(cell, outcome, s_c, tag, err)


def _tally_prefix(block: _Block, keep: int) -> SiftedTallies:
    tag = block.tag[:keep]
    n = np.bincount(tag, minlength=4)
    m = np.bincount(tag[block.err[:keep]], minlength=4)
    return SiftedTallies(
        n_x=int(n[SetTag.X_SET]), m_x=int(m[SetTag.X_SET]),
        n_ybc=int(n[SetTag.YBC_SET]), m_ybc=int(m[SetTag.YBC_SET]),
        n_yac=int(n[SetTag.YAC_SET]), m_yac=int(m[SetTag.YAC_SET]),
        rounds=keep,
    )


# rows end in \r\n, the line end of the default csv dialect
_TRACE_HEADER = "i,s_a,s_b,basis_a,basis_b,basis_c,outcome,s_c,set_tag\r\n"
_OUTCOME_NAMES = ("zero", "one", "none", "double")
_TAG_NAMES = ("X", "YBC", "YAC", "DISCARD")


def _row_text(key: int) -> str:
    """Trace row after the index for ``key = cell | outcome << 5 | s_c << 7``."""
    cell, outcome, s_c = key & 31, key >> 5 & 3, key >> 7
    if outcome == Outcome.NONE:
        bit, tag = "", SetTag.DISCARD
    else:
        bit, tag = s_c, CELL_TAG[cell]
    bases = ",".join("XY"[b[cell]] for b in _BASES)
    return (f"{_S_A[cell]},{_S_B[cell]},{bases},{_OUTCOME_NAMES[outcome]},"
            f"{bit},{_TAG_NAMES[tag]}\r\n")


_ROW_TEXT = np.array([_row_text(key) for key in range(256)], dtype=object)


def _write_trace_rows(fh, start: int, block: _Block, keep: int) -> None:
    keys = block.cell[:keep] | block.outcome[:keep] << 5 | block.s_c[:keep] << 7
    fh.writelines(f"{i},{text}" for i, text in zip(count(start), _ROW_TEXT[keys].tolist()))


def run_protocol(
    source: SourceParams,
    channel: ChannelModel,
    *,
    seed: int,
    thresholds: SetThresholds | tuple | None = None,
    max_rounds: int | None = None,
    trace_path=None,
) -> ProtocolRun:
    """Run the protocol until the set thresholds are met.

    Parameters
    ----------
    thresholds:
        Target detection counts per set.  When given, the run stops at the
        exact round where the last threshold is reached; if it would take
        more than ``max_rounds`` (default: 100x the expected requirement)
        the run aborts with the partial result attached.  When ``None``,
        exactly ``max_rounds`` rounds are simulated.
    seed:
        Master seed.  Rounds are drawn in blocks of ``BLOCK_ROUNDS`` from
        sequentially spawned child generators, so the round stream depends
        on the seed alone: any run is a prefix of a longer run with the
        same seed.
    trace_path:
        Optional CSV path recording every simulated round, with the
        dealer's raw bit before the YAC flip.
    """
    if thresholds is not None and not isinstance(thresholds, SetThresholds):
        thresholds = SetThresholds(*thresholds)
    if thresholds is None and max_rounds is None:
        raise ParameterError("need thresholds or an explicit number of rounds")
    if max_rounds is not None and not max_rounds >= 1:
        raise ParameterError("max_rounds must be at least 1")

    if thresholds is not None and max_rounds is None:
        q = gain(source.intensity, transmittance(channel), channel.dark_count)
        share_x, share_y = set_shares(source.px)
        p_x = share_x * q
        p_y = share_y * q
        if p_x <= 0.0 or p_y <= 0.0:
            raise ProtocolAbortError("thresholds unreachable: zero detection probability")
        expected = max(thresholds.n_x / p_x, thresholds.n_ybc / p_y, thresholds.n_yac / p_y)
        max_rounds = math.ceil(100.0 * expected)

    ss = np.random.SeedSequence(seed)
    total = SiftedTallies()
    keys_a, keys_b, keys_c = [], [], []
    trace_file = None
    if trace_path is not None:
        trace_file = open(trace_path, "w", newline="")
        trace_file.write(_TRACE_HEADER)

    try:
        done = False
        while not done and total.rounds < max_rounds:
            n = min(BLOCK_ROUNDS, max_rounds - total.rounds)
            rng = np.random.default_rng(ss.spawn(1)[0])
            block = _simulate_block(source, channel, rng, n)
            keep = n
            if thresholds is not None:
                met = (
                    (total.n_x + np.cumsum(block.tag == SetTag.X_SET) >= thresholds.n_x)
                    & (total.n_ybc + np.cumsum(block.tag == SetTag.YBC_SET) >= thresholds.n_ybc)
                    & (total.n_yac + np.cumsum(block.tag == SetTag.YAC_SET) >= thresholds.n_yac)
                )
                if met.any():
                    keep = int(np.argmax(met)) + 1
                    done = True
            if trace_file is not None:
                _write_trace_rows(trace_file, total.rounds, block, keep)
            in_x = block.tag[:keep] == SetTag.X_SET
            x_cells = block.cell[:keep][in_x]
            keys_a.append(_S_A[x_cells])
            keys_b.append(_S_B[x_cells])
            keys_c.append(block.s_c[:keep][in_x])
            total = total.merged(_tally_prefix(block, keep))
    finally:
        if trace_file is not None:
            trace_file.close()

    run = ProtocolRun(
        tallies=total,
        key_a=np.concatenate(keys_a) if keys_a else np.empty(0, np.uint8),
        key_b=np.concatenate(keys_b) if keys_b else np.empty(0, np.uint8),
        key_c=np.concatenate(keys_c) if keys_c else np.empty(0, np.uint8),
        rounds_used=total.rounds,
        seed=seed,
    )
    if thresholds is not None and not done:
        raise ProtocolAbortError(
            f"round cap {max_rounds} reached before thresholds were met", partial=run,
        )
    return run


def verify_correlation(key_a, key_b, key_c) -> bool:
    """Check the secret sharing correlation: dealer bit equals XOR of players'."""
    a = np.asarray(key_a, dtype=np.uint8)
    b = np.asarray(key_b, dtype=np.uint8)
    c = np.asarray(key_c, dtype=np.uint8)
    if not (a.shape == b.shape == c.shape):
        raise ParameterError("key arrays must have equal length")
    return bool(((a ^ b) == c).all())
