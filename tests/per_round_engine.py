"""Per-round reference engine for the detection-only sampler.

It draws every round, clicked or not, from the round table's outcome
probabilities, so its tallies have the same distribution as those of
``run_protocol`` and serve as the sampler's oracle.
"""

from typing import NamedTuple

import numpy as np

from triqss import protocol, roundtable
from triqss.protocol import Outcome
from triqss.roundtable import SetTag

CELL_TAG = np.array(roundtable.CELL_TAG, np.uint8)
CELL_BIT = np.array(roundtable.CELL_BIT, np.uint8)


class Block(NamedTuple):
    """Per-round arrays for one simulated block."""

    cell: np.ndarray
    outcome: np.ndarray
    s_c: np.ndarray      # registered dealer bit, before any YAC flip
    tag: np.ndarray      # set tag; DISCARD when nothing clicked
    err: np.ndarray      # detected and s_c differs from the cell's correct bit


def outcome_thresholds(source, channel) -> tuple:
    """Per-cell cumulative outcome probabilities ``p0``, ``p0+p1``, ``p0+p1+pn``.

    A round in cell ``c`` with outcome variate ``u`` registers outcome
    ``(u >= t0[c]) + (u >= t1[c]) + (u >= t2[c])`` in :class:`Outcome` order.
    """
    t0, only1, none, _ = protocol._cell_probabilities(source, channel)
    t1 = t0 + only1
    return t0, t1, t1 + none


def simulate_block(source, channel, rng: np.random.Generator, n: int) -> Block:
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
    return Block(cell, outcome, s_c, tag, err)


def block_tallies(block: Block, rounds: int):
    """Set and error counts of one block, as ``run_protocol`` reports them."""
    n = np.bincount(block.tag, minlength=4)
    m = np.bincount(block.tag[block.err], minlength=4)
    return protocol._tallies(n, m, rounds)
