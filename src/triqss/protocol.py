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

Everything a round does follows from the round table of
:mod:`triqss.roundtable`: one row per setting cell, with the settings, the
quarter-turn phase codes and their net turns, the set tag and the dealer's
correct raw bit (``s_a ^ s_b``, flipped on YAC cells, so the YAC flip is a
column), held here as private arrays.  ``_cell_probabilities`` evaluates
the click model of :mod:`triqss.optics` at the four port splits and
gathers the cells' outcome probabilities by their net quarter turns.  The
simulator, the trace writer and the count-table reader all read this table.

``run_protocol`` draws only the rounds that click.  Rounds are i.i.d., so
the gaps between detections are Geometric(p_det) and each detection is a
categorical draw over the table's cells and outcomes; this is exact in
distribution and costs work per detection, not per round.  The
distributions for one source and channel, and a guide table of
``_GUIDE_BINS`` bins for each (Chen & Asau's indexed search, which starts
each categorical draw at the right category or just below it), come from a
small cache keyed by the frozen parameters and are read-only.

Stream layout.  Every draw comes from a descendant of
``SeedSequence(seed)`` at a fixed spawn key: the child that spawning a
detection branch and a trace branch from the seed, and then children one
at a time from each, would give.

- Detections come in chunks whose size is fixed by the chunk index alone:
  ``FIRST_CHUNK_DETECTIONS`` in chunk 0, which covers most runs at high
  loss, then ``CHUNK_DETECTIONS`` each.  Chunk ``k`` of ``size``
  detections makes one ``random(2 * size)`` call on spawn key ``(0, k)``:
  the first half gives the gaps by inversion, ``floor(log(1 - u) /
  log1p(-p_det)) + 1``, and the second half the categories.
- The trace draws the cells of its rounds with no click, in round order,
  from the one generator at spawn key ``(1, 0)``.

The result is defined by the seed alone: a trace never changes it, and a
run stopped early is a prefix of a longer run with the same seed.  The
tests check the sampler against a per-round reference engine built on the
same table.  The trace writer draws the no-click cells a chunk at a time,
as it writes them: a chunk runs to the end of its 10,000-row window or index
width, and a stretch with more than ``_TRACE_CHUNK_CLICKS`` clicks is cut
into chunks with equal shares of them.  It builds each chunk as if no round
clicked: one fixed-width block, every row its index and then its cell's
26-byte no-click text, gathered from a 32-entry table of rows of that index
width.
A chunk without detections is written straight from the block; in a chunk
with detections each detection row's text is spliced in after its index.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import count
from typing import NamedTuple

import numpy as np

from . import roundtable
from .errors import ParameterError, ProtocolAbortError
from .optics import ChannelModel, SourceParams, _port_clicks, transmittance
from .roundtable import SetCounts, SetTag

# detections in the first chunk, and in each later one (see _chunk_detections);
# a run at 30 dB with thresholds (200, 1, 1) keeps about 300
FIRST_CHUNK_DETECTIONS = 512
CHUNK_DETECTIONS = 4096
# most rounds one run may cover; keeps round positions far inside int64
MAX_ROUNDS = 2 ** 50


class Outcome(IntEnum):
    ZERO = 0
    ONE = 1
    NONE = 2
    DOUBLE = 3


@dataclass(frozen=True)
class SetThresholds:
    """Target detection counts per sifted set for a threshold-driven run."""

    n_x: int
    n_ybc: int
    n_yac: int

    def __post_init__(self):
        for name in ("n_x", "n_ybc", "n_yac"):
            value = getattr(self, name)
            try:
                whole = int(value) == value   # int() raises on NaN and infinities
            except (TypeError, ValueError, OverflowError):
                whole = False
            if not whole:
                raise ParameterError(f"set thresholds must be whole numbers: {name} = {value!r}")
            object.__setattr__(self, name, int(value))
        if min(self.n_x, self.n_ybc, self.n_yac) < 1:
            raise ParameterError("set thresholds must be at least 1")
        # a detection takes a round, so a larger threshold is never met
        if max(self.n_x, self.n_ybc, self.n_yac) > MAX_ROUNDS:
            raise ParameterError(f"set thresholds must be at most MAX_ROUNDS = {MAX_ROUNDS}")


@dataclass(frozen=True)
class SiftedTallies(SetCounts):
    """Detection and error counts per sifted set, plus rounds consumed."""

    rounds: int = 0


@dataclass(frozen=True)
class ProtocolRun:
    """Result of :func:`run_protocol`: tallies plus the raw key bit triples."""

    tallies: SiftedTallies
    key_a: np.ndarray
    key_b: np.ndarray
    key_c: np.ndarray

    @property
    def rounds_used(self) -> int:
        """Rounds the run consumed, ``tallies.rounds``."""
        return self.tallies.rounds


# the round table's columns, one entry per cell, as arrays
_S_A, _S_B, *_BASES = np.array(roundtable._SETTINGS, np.uint8)
_TURNS = np.array(roundtable.CELL_TURNS)
_TAG = np.array(roundtable.CELL_TAG, np.uint8)
_BIT = np.array(roundtable.CELL_BIT, np.uint8)


def _cell_probabilities(source: SourceParams, channel: ChannelModel) -> tuple:
    """Outcome distribution of each of the 32 round table cells, in :class:`Outcome` order.

    At 0, 1, 2 or 3 net quarter turns detector 1 receives all, half, none or
    half of the ``2 mu eta`` photons and detector 2 the rest; each cell
    gathers :func:`~triqss.optics._port_clicks` at its split, and a lone
    click is swapped to the other detector with probability ``misalignment``.
    """
    dark, misalignment = channel.dark_count, channel.misalignment
    x = 2.0 * source.intensity * transmittance(channel)
    splits = ((x, 0.0), (0.5 * x, 0.5 * x), (0.0, x), (0.5 * x, 0.5 * x))
    clicks = np.array([_port_clicks(x1, x2, dark) for x1, x2 in splits])
    lone1, lone2, none, double = clicks[_TURNS].T
    return ((1.0 - misalignment) * lone1 + misalignment * lone2,
            (1.0 - misalignment) * lone2 + misalignment * lone1, none, double)


def _tallies(n: np.ndarray, m: np.ndarray, rounds: int) -> SiftedTallies:
    """Tallies from detection counts ``n`` and error counts ``m`` per set tag."""
    # in set tag order: X_SET, YBC_SET, YAC_SET, DISCARD
    (n_x, n_ybc, n_yac, _), (m_x, m_ybc, m_yac, _) = n.tolist(), m.tolist()
    return SiftedTallies(n_x=n_x, m_x=m_x, n_ybc=n_ybc, m_ybc=m_ybc, n_yac=n_yac, m_yac=m_yac,
                         rounds=rounds)


# detected categories: cat = cell * 4 + k, where k = 0 is a lone click on
# detector 1 (s_c = 0), k = 1 a lone click on detector 2 (s_c = 1), and
# k = 2, 3 a double click resolved to s_c = k - 2
_CATS = np.arange(128)
_CAT_CELL = _CATS >> 2
_CAT_SC = (_CATS & 1).astype(np.uint8)
_CAT_TAG = _TAG[_CAT_CELL]
_CAT_ERR = _CAT_SC != _BIT[_CAT_CELL]
_CAT_OUTCOME = np.array([Outcome.ZERO, Outcome.ONE, Outcome.DOUBLE, Outcome.DOUBLE])[_CATS & 3]
_CAT_ROW = _CAT_CELL | _CAT_OUTCOME << 5 | _CAT_SC << 7   # key of _row_text
# per category: its set tag one-hot, then the same again if its bit is an
# error; the category counts of a chunk times this table are its detections
# and then its errors per set tag
_CAT_COUNTS = np.eye(4, dtype=np.int64)[_CAT_TAG]
_CAT_COUNTS = np.hstack([_CAT_COUNTS, _CAT_COUNTS * _CAT_ERR[:, None]])
# per category: the key bits s_a, s_b and s_c
_CAT_KEYS = np.stack([_S_A[_CAT_CELL], _S_B[_CAT_CELL], _CAT_SC])


class _DetectionTables(NamedTuple):
    """What one round does, as the distributions the sampler draws from."""

    p_det: float             # probability that a round clicks at all
    cdf: np.ndarray          # over the 128 detected categories
    none_cdf: np.ndarray     # over the 32 cells, for rounds with no click
    guide: np.ndarray        # guide table of cdf
    none_guide: np.ndarray   # guide table of none_cdf
    set_gains: tuple         # chance that a round adds to the X, YBC and YAC sets


# bins of a guide table; a power of two, so u * _GUIDE_BINS and j / _GUIDE_BINS
# are exact
_GUIDE_BINS = 4096
_BIN_EDGES = np.arange(_GUIDE_BINS) / _GUIDE_BINS


def _cdf(weights: np.ndarray) -> np.ndarray:
    # dividing by the last entry makes it exactly 1, so a variate below one
    # always lands on a category of positive weight
    cdf = np.cumsum(weights)
    return cdf / cdf[-1] if cdf[-1] > 0.0 else np.ones_like(cdf)


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Entry ``j``: the first category whose ``cdf`` exceeds ``j / _GUIDE_BINS``.

    A variate in bin ``j`` lands on that category or a later one, but not
    past entry ``j + 1``; ``cdf[-1] == 1`` keeps every entry a valid category.
    """
    return np.searchsorted(cdf, _BIN_EDGES, side="right")


def _draw(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for variates in [0, 1), by guide table.

    Each variate starts at its bin's guide entry, which is already the
    answer unless the bin holds a category edge at or below the variate;
    only those few are searched.
    """
    cat = guide[(u * _GUIDE_BINS).astype(np.intp)]
    short = cdf[cat] <= u
    if short.any():
        cat[short] = np.searchsorted(cdf, u[short], side="right")
    return cat


@lru_cache(maxsize=16)
def _detection_tables(source: SourceParams, channel: ChannelModel) -> _DetectionTables:
    """Round table weights for one source and channel, cached and read-only.

    ``p_det`` and ``set_gains`` sum the detected categories, double clicks
    included, so they sit slightly above :func:`~triqss.optics.gain` and its
    set shares, which count single clicks only.
    """
    only0, only1, none, double = _cell_probabilities(source, channel)
    basis_p = np.array([source.px, 1.0 - source.px])
    p_cell = 0.25 * basis_p[_BASES[0]] * basis_p[_BASES[1]] * basis_p[_BASES[2]]
    half_double = 0.5 * double
    weights = (p_cell[:, None] * np.stack([only0, only1, half_double, half_double], 1)).ravel()
    p_det = min(1.0, float(weights.sum()))
    cdf, none_cdf = _cdf(weights), _cdf(p_cell * none)
    arrays = (cdf, none_cdf, _guide(cdf), _guide(none_cdf))
    for a in arrays:
        a.flags.writeable = False   # every caller shares the cached arrays
    set_gains = tuple(np.bincount(_CAT_TAG, weights, 4)[:3].tolist())
    return _DetectionTables(p_det, *arrays, set_gains)


def _generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """Generator of the seed's descendant at ``spawn_key``, without spawning its ancestors."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _chunk_detections(k: int) -> int:
    """Detections in chunk ``k``; fixed by ``k`` alone, so a run is a prefix of any longer run."""
    return FIRST_CHUNK_DETECTIONS if k == 0 else CHUNK_DETECTIONS


def _detections(seed: int, tables: _DetectionTables, horizon: int):
    """Positions and categories of the detected rounds below ``horizon``.

    Yields one chunk at a time, drawn from ``seed`` as the stream layout
    (module docstring) sets out: the gaps between detections are
    Geometric(p_det) by inversion, and each detection is a categorical draw
    by guide table, equal to a binary search of ``tables.cdf``.
    """
    if tables.p_det == 0.0:   # nothing clicks
        return
    # log of the chance that a round does not click; every gap is 1 when all
    # rounds click.  Below p_det of about 1e-31 every gap but that of u == 0
    # clips to MAX_ROUNDS + 1, so the ceiling at -1e-300 changes no gap and
    # keeps the quotients finite
    log_miss = min(math.log1p(-tables.p_det), -1e-300) if tables.p_det < 1.0 else -math.inf
    last = -1
    for k in count():
        size = _chunk_detections(k)
        u = _generator(seed, 0, k).random(2 * size)
        # the quotient is at least 0, so the cast floors it; a gap beyond
        # MAX_ROUNDS passes any horizon, so clipping it changes nothing kept
        # and keeps the positions inside int64.  The first gap counts from
        # the last detection of the chunk before
        q = np.log(1.0 - u[:size])
        q /= log_miss
        gaps = np.minimum(q, MAX_ROUNDS, out=q).astype(np.int64)
        gaps += 1
        gaps[0] += last
        pos = np.cumsum(gaps, out=gaps)
        cat = _draw(tables.cdf, tables.guide, u[size:])
        keep = int(np.searchsorted(pos, horizon))
        yield pos[:keep], cat[:keep]
        if keep < size:
            return
        last = int(pos[-1])


def _stop(n: np.ndarray, tag: np.ndarray, thresholds: SetThresholds) -> int | None:
    """Detections of a chunk up to the one that meets every threshold, if one does.

    ``n`` counts the detections per set tag before the chunk and ``tag``
    holds the chunk's set tags.  The stop is the latest of the unmet sets'
    ``need``-th hits.
    """
    # a stable sort lists the hits of each set tag in chunk order, the tags
    # in set tag order: X_SET, YBC_SET, YAC_SET, DISCARD
    hits = np.argsort(tag, kind="stable")
    counts = np.bincount(tag, minlength=4).tolist()
    start, last = 0, -1
    for t, target in enumerate((thresholds.n_x, thresholds.n_ybc, thresholds.n_yac)):
        need = target - int(n[t])
        if need > 0:
            if counts[t] < need:
                return None
            last = max(last, int(hits[start + need - 1]))
        start += counts[t]
    return last + 1


# rows end in \r\n, the line end of the default csv dialect
_TRACE_HEADER = b"i,s_a,s_b,basis_a,basis_b,basis_c,outcome,s_c,set_tag\r\n"
_OUTCOME_NAMES = ("zero", "one", "none", "double")
_TAG_NAMES = ("X", "YBC", "YAC", "DISCARD")


def _row_text(key: int) -> bytes:
    """Trace row after the index for ``key = cell | outcome << 5 | s_c << 7``."""
    cell, outcome, s_c = key & 31, key >> 5 & 3, key >> 7
    if outcome == Outcome.NONE:
        bit, tag = "", SetTag.DISCARD
    else:
        bit, tag = s_c, _TAG[cell]
    bases = ",".join("XY"[b[cell]] for b in _BASES)
    return (f",{_S_A[cell]},{_S_B[cell]},{bases},{_OUTCOME_NAMES[outcome]},"
            f"{bit},{_TAG_NAMES[tag]}\r\n").encode()


# each cell's row text after the index with no click: one-character fields,
# outcome "none", no bit and set tag DISCARD, so 26 bytes whatever the cell
# (rows of unequal length would fail to make the array)
_NONE_TEXT = np.array([list(_row_text(cell | Outcome.NONE << 5)) for cell in range(32)],
                      np.uint8)
# each detected category's row text after the index
_CAT_TEXT = np.array([_row_text(key) for key in _CAT_ROW.tolist()], object)
# "0000" to "9999", the last four digits of a row index, as one uint32 each
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_LAST_DIGITS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), -1).view(np.uint32).ravel()
# clicks in one trace chunk at most (see _TraceWriter), tuned on 1e6-row
# traces at 0 km with mu from 9e-4 to 0.5
_TRACE_CHUNK_CLICKS = 600
_NO_DETECTIONS = np.empty(0, np.intp)


@lru_cache(maxsize=None)   # one entry per index width, at most 16
def _no_click_rows(digits: int) -> np.ndarray:
    """Each cell's no-click row with an index of ``digits`` digits, the index left blank."""
    rows = np.zeros((32, digits + _NONE_TEXT.shape[1]), np.uint8)
    rows[:, digits:] = _NONE_TEXT
    rows = rows.view(f"V{rows.shape[1]}")[:, 0]
    rows.flags.writeable = False   # every chunk of this width shares it
    return rows


def _no_click_block(start: int, cells: np.ndarray) -> np.ndarray:
    """Rows from round ``start`` on as if none clicked, one fixed-width row each.

    The indices have one width, so they differ only in their last four digits.
    """
    digits = len(str(start + cells.size - 1))
    rows = _no_click_rows(digits)
    block = np.empty((cells.size, rows.itemsize), np.uint8)
    # whole rows into contiguous memory; cells are below 32, and a mode other
    # than "raise" lets take fill out unbuffered
    np.take(rows, cells, out=block.view(rows.dtype)[:, 0], mode="clip")
    last = _LAST_DIGITS[start % 10_000:][:cells.size]
    if digits < 4:
        block[:, :digits] = last.view(np.uint8).reshape(-1, 4)[:, 4 - digits:]
    else:   # one uint32 per row copies fastest
        block[:, digits - 4:digits].view(np.uint32)[:, 0] = last
    if digits > 4:
        block[:, :digits - 4] = np.frombuffer(str(start // 10_000).encode(), np.uint8)
    return block


def _splice(block: np.ndarray, rows: np.ndarray, cat: np.ndarray) -> bytes:
    """``block``'s bytes with detected category ``cat[i]``'s text on row ``rows[i]``.

    Each detection row keeps its index from the block; ``rows`` is sorted.
    """
    width = block.shape[1]
    flat = memoryview(block.reshape(-1))
    # the block's bytes between detections: up to the end of each detection
    # row's index, and on from the start of the row after it
    row_start = rows * width
    ends = (row_start + (width - _NONE_TEXT.shape[1])).tolist()
    ends.append(flat.nbytes)
    starts = (row_start + width).tolist()
    starts.insert(0, 0)
    pieces = [None] * (2 * rows.size + 1)
    pieces[::2] = [flat[a:b] for a, b in zip(starts, ends)]
    pieces[1::2] = _CAT_TEXT[cat].tolist()
    return b"".join(pieces)


class _TraceWriter:
    """Writes one row per round, in order, with rows that did not click filled in.

    Rows go out as bytes, one write per chunk.  A chunk runs to the end of
    its 10,000-row window or of its index width, whichever comes first, so
    its rows differ only in their last four index digits and a sparse trace
    pays the cost of a chunk once per 10,000 rows.  Where that would put
    more than ``_TRACE_CHUNK_CLICKS`` clicks in one chunk, the clicks up to
    that end are cut into the fewest equal shares of at most the cap, each
    chunk ending at the row of the first click past its share.  A chunk
    with many clicks is dearer per row, as its splice holds a piece per
    click and a joined copy of the block.  Equal shares avoid a long chunk
    followed by a short rest, which made glibc's heap shrink and grow back
    in every window: at ``mu`` 0.1 and 0 km (8% of rounds click), 11,700
    page faults per 1e6 rows with the cut at the cap against 1,100 with
    equal shares.  The cells of rounds with no click are drawn by guide
    table from the no-click distribution, in round order from
    ``rng``, the trace's generator of the stream layout (module docstring).
    Each chunk is first a fixed-width block of its rows as if none clicked
    (:func:`_no_click_block`); the text of each detection row is then
    spliced into the block's bytes after that row's index (:func:`_splice`).
    """

    def __init__(self, fh, rng: np.random.Generator, none_cdf: np.ndarray,
                 none_guide: np.ndarray):
        self._fh, self._rng = fh, rng
        self._none_cdf, self._none_guide = none_cdf, none_guide
        self.written = 0
        fh.write(_TRACE_HEADER)

    def write(self, end: int, pos: np.ndarray = _NO_DETECTIONS,
              cat: np.ndarray = _NO_DETECTIONS) -> None:
        """Rows up to round ``end``; ``pos`` and ``cat`` are the detections among them."""
        while self.written < end:
            start = self.written
            stop = min(end, start - start % 10_000 + 10_000, 10 ** len(str(start)))
            lo, hi = np.searchsorted(pos, (start, stop))
            if hi - lo > _TRACE_CHUNK_CLICKS:
                # the fewest equal shares of at most the cap
                shares = -(-(hi - lo) // _TRACE_CHUNK_CLICKS)
                hi = lo + -(-(hi - lo) // shares)
                stop = int(pos[hi])
            cells = _draw(self._none_cdf, self._none_guide, self._rng.random(stop - start))
            block = _no_click_block(start, cells)
            self._fh.write(block if lo == hi else _splice(block, pos[lo:hi] - start, cat[lo:hi]))
            self.written = stop


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

    Only the rounds that click are drawn: the gaps between them are
    Geometric(p_det) and each one is a categorical draw over the round
    table's cells and outcomes, which is exact in distribution because
    rounds are i.i.d.  The cost scales with detections, not rounds.

    Parameters
    ----------
    thresholds:
        Target detection counts per set.  When given, the run stops at the
        exact round where the last threshold is reached; if it would take
        more than ``max_rounds`` (default: 100x the expected requirement,
        at most ``MAX_ROUNDS``) the run aborts with the partial result
        attached.  When ``None``, exactly ``max_rounds`` rounds are
        simulated.
    seed:
        Master seed, a nonnegative integer; the module docstring gives the
        stream layout.  The result depends on the seed alone, with or
        without a trace, and any run is a prefix of a longer run with the
        same seed.
    trace_path:
        Optional CSV path with one row per simulated round and the dealer's
        raw bit before the YAC flip.  Rows of rounds with no click are drawn
        from the no-click distribution.
    """
    # checked before a trace file is opened: SeedSequence rejects a float
    # seed only once a generator is made
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    if thresholds is not None and not isinstance(thresholds, SetThresholds):
        thresholds = SetThresholds(*thresholds)
    if thresholds is None and max_rounds is None:
        raise ParameterError("need thresholds or an explicit number of rounds")
    if max_rounds is not None:
        if not 1 <= max_rounds <= MAX_ROUNDS or max_rounds != int(max_rounds):
            raise ParameterError(f"max_rounds must be a whole number from 1 to {MAX_ROUNDS}")
        max_rounds = int(max_rounds)

    tables = _detection_tables(source, channel)
    if thresholds is not None and max_rounds is None:
        p_x, p_ybc, p_yac = tables.set_gains
        if min(tables.set_gains) <= 0.0:
            raise ProtocolAbortError("thresholds unreachable: zero detection probability")
        expected = max(thresholds.n_x / p_x, thresholds.n_ybc / p_ybc, thresholds.n_yac / p_yac)
        # compare before converting: the cap can overflow to inf
        cap = 100.0 * expected
        max_rounds = math.ceil(cap) if cap < MAX_ROUNDS else MAX_ROUNDS

    nm = np.zeros(8, np.int64)   # detections, then errors, per set tag
    n = nm[:4]
    x_keys = []   # key bits s_a, s_b and s_c of the X detections, a chunk at a time
    rounds = max_rounds
    done = False
    opened = open(trace_path, "wb") if trace_path is not None else nullcontext()
    with opened as fh:
        trace = None
        if fh is not None:
            trace = _TraceWriter(fh, _generator(seed, 1, 0), tables.none_cdf, tables.none_guide)
        for pos, cat in _detections(seed, tables, max_rounds):
            tag = _CAT_TAG[cat]
            if thresholds is not None:
                keep = _stop(n, tag, thresholds)
                if keep is not None:
                    pos, cat, tag = pos[:keep], cat[:keep], tag[:keep]
                    rounds = int(pos[-1]) + 1
                    done = True
            nm += np.bincount(cat, minlength=128) @ _CAT_COUNTS
            x_keys.append(_CAT_KEYS.take(cat[tag == SetTag.X_SET], axis=1))
            if trace is not None and pos.size:
                trace.write(int(pos[-1]) + 1, pos, cat)
            if done:
                break
        if trace is not None:
            trace.write(rounds)

    key_a, key_b, key_c = np.concatenate(x_keys, 1) if x_keys else np.empty((3, 0), np.uint8)
    run = ProtocolRun(
        tallies=_tallies(n, nm[4:], rounds),
        key_a=key_a,
        key_b=key_b,
        key_c=key_c,
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
