"""Ingestion and analysis of measured detection-count tables.

A count table is a CSV with header ``phase_a,phase_b,phase_c,spd1,spd2``.
Phases are encoded as quarter-turn integers (0 -> 0, 1 -> pi/2, 2 -> pi,
3 -> 3pi/2) and each row gives the number of clicks per detector accumulated
over all rounds announced with that phase triple.

Decoding: players signal in the X basis with phases {0, pi} and in the Y
basis with {pi/2, 3pi/2}; the dealer's recorded phase is even (X) or odd (Y)
in the same units, with an extra pi sometimes added for balance.  For every
tabulated triple the interferometer output is deterministic up to noise:
detector 1 is the expected port when the net phase difference
``phase_b + phase_c - phase_a`` vanishes mod 2 pi, detector 2 when it equals
pi.  Clicks in the unexpected port count as errors.

Reading: each data line's three phase fields are first looked up by their
text, which finds every triple written as bare digits 0..3; a line spelled
any other way converts them with ``int(field.strip())``, as the counts
always are.  Both ways accept and reject the same lines with the same
messages.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

from .errors import CountTableError, ParameterError
from .finitekey import EC_EFFICIENCY, EpsilonBudget, KeyRateReport
from .finitekey import _check_ec_efficiency, _key_length, _phase_error_bound, _phase_error_chain
from .optics import ChannelModel, SourceParams, _coin_terms, binary_entropy, coin_imbalance
from .optics import gain, transmittance
from .report import read_utf8
from .roundtable import CELL_BIT, CELL_QUARTERS, CELL_TAG, SetCounts, SetTag, set_shares

COUNT_HEADER = ["phase_a", "phase_b", "phase_c", "spd1", "spd2"]

# pulse repetition rate that converts a per-pulse rate to bits per second;
# the default of experiment_skr and of the command line's --rep-rate
_REP_RATE_HZ = 1e8


@dataclass(frozen=True)
class CountRow:
    """One table row: a phase triple and its two detector counts."""

    phase_a: int
    phase_b: int
    phase_c: int
    spd1: int
    spd2: int

    def __post_init__(self):
        for name in ("phase_a", "phase_b", "phase_c"):
            if getattr(self, name) not in (0, 1, 2, 3):
                raise CountTableError(f"{name} must be a quarter-turn code 0..3")
        if self.spd1 < 0 or self.spd2 < 0:
            raise CountTableError("detector counts must be nonnegative")

    @property
    def triple(self) -> tuple:
        return (self.phase_a, self.phase_b, self.phase_c)


# every phase triple -> (set index, lit port): the triple is a round table
# cell plus the dealer's extra pi, the cell gives the set, and its correct
# raw bit, flipped by the extra pi, gives the lit port (1 or 2); discarded
# patterns have no lit port
_SLOT_OF_TRIPLE = {
    (q_a, q_b, q_c + 2 * extra): (int(tag), None if tag == SetTag.DISCARD else 1 + (bit ^ extra))
    for (q_a, q_b, q_c), tag, bit in zip(zip(*CELL_QUARTERS), CELL_TAG, CELL_BIT)
    for extra in (0, 1)
}


# the text of the three phase fields, each a bare digit 0..3, -> (triple,
# slot), which lets the reader skip converting them (see _checked_lines)
_TRIPLE_OF_TEXT = {tuple(map(str, triple)): (triple, slot)
                   for triple, slot in _SLOT_OF_TRIPLE.items()}


def _checked_lines(source, rows=None) -> tuple[list, list]:
    """Per-set sums ``(n, m)`` of detections and errors over the data lines
    of a count table, each a list indexed by ``SetTag`` whose fourth slot
    holds the discarded patterns; each line's row is appended to ``rows``
    when a list is given.

    The one per-line body of the reader: every check, with its line number,
    runs here in this order: field count, integer fields, phase codes,
    nonnegative counts, repeated triple.  The three phase fields are first
    looked up by their text, which finds them when each is a bare digit
    0..3; any other spelling is converted with ``int(field.strip())``, as
    the two counts always are, so a lookup changes nothing that is accepted
    or rejected.  A repeated triple is found by its integers, whatever its
    spelling.  A path is read as UTF-8.
    """
    if isinstance(source, (str, os.PathLike)):
        source = io.StringIO(read_utf8(source, CountTableError), newline="")

    n = [0, 0, 0, 0]
    m = [0, 0, 0, 0]
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        return n, m
    if [h.strip() for h in header] != COUNT_HEADER:
        raise CountTableError(f"expected header {','.join(COUNT_HEADER)}", line=1)
    seen: dict[tuple, int] = {}
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != 5:
            raise CountTableError(f"expected 5 fields, got {len(rec)}", line=lineno)
        a, b, c, spd1, spd2 = rec
        found = _TRIPLE_OF_TEXT.get((a, b, c))
        try:
            if found is None:
                a, b, c, spd1, spd2 = map(int, map(str.strip, rec))
                triple = (a, b, c)
                slot = _SLOT_OF_TRIPLE.get(triple)
            else:
                triple, slot = found
                spd1, spd2 = int(spd1.strip()), int(spd2.strip())
        except ValueError:
            raise CountTableError(f"non-integer field in {rec!r}", line=lineno) from None
        if slot is None or spd1 < 0 or spd2 < 0:
            try:   # the row type owns these messages, so it raises them
                CountRow(*triple, spd1, spd2)
            except CountTableError as exc:
                raise CountTableError(str(exc), line=lineno) from None
        first = seen.setdefault(triple, lineno)
        if first != lineno:
            raise CountTableError(
                f"duplicate phase triple {triple}, first seen on line {first}",
                line=lineno,
            )
        tag, lit = slot
        n[tag] += spd1 + spd2
        m[tag] += spd2 if lit == 1 else spd1
        if rows is not None:
            rows.append(CountRow(*triple, spd1, spd2))
    return n, m


def parse_counts(source) -> list[CountRow]:
    """Parse a count table from a path or an open text stream.

    The header row must match ``phase_a,phase_b,phase_c,spd1,spd2``; an
    entirely empty input parses to an empty list.  Repeated phase triples
    and malformed lines are rejected with their line number, and so is a
    path that is not valid UTF-8.
    """
    rows: list[CountRow] = []
    _checked_lines(source, rows)
    return rows


@dataclass(frozen=True)
class ExperimentSummary(SetCounts):
    """Set tallies and error rates extracted from one count table."""

    mu: float | None = None
    px: float | None = None

    @property
    def eb_y_worst(self) -> float:
        return max(self.eb_ybc, self.eb_yac)


def _summary(n, m, mu: float | None, px: float | None) -> ExperimentSummary:
    """The summary of per-set sums ``n``, ``m`` indexed by ``SetTag``.

    All three sets must be nonempty, otherwise the table cannot support the
    analysis.
    """
    for tag in (SetTag.X_SET, SetTag.YBC_SET, SetTag.YAC_SET):
        if n[tag] == 0:
            raise CountTableError(f"no detections in required set {tag.name}")
    return ExperimentSummary(
        n_x=n[SetTag.X_SET], m_x=m[SetTag.X_SET],
        n_ybc=n[SetTag.YBC_SET], m_ybc=m[SetTag.YBC_SET],
        n_yac=n[SetTag.YAC_SET], m_yac=m[SetTag.YAC_SET],
        mu=mu, px=px,
    )


def tally_sets(rows, *, mu: float | None = None, px: float | None = None) -> ExperimentSummary:
    """Accumulate per-set detection and error counts over table rows.

    Discarded patterns contribute nothing.  All three sets must end up
    nonempty, otherwise the table cannot support the analysis.
    """
    n = [0, 0, 0, 0]   # indexed by SetTag; the discarded patterns add to the fourth slot
    m = [0, 0, 0, 0]
    for row in rows:
        tag, lit = _SLOT_OF_TRIPLE[row.triple]
        n[tag] += row.spd1 + row.spd2
        m[tag] += row.spd2 if lit == 1 else row.spd1
    return _summary(n, m, mu, px)


def tally_table(source, *, mu: float | None = None,
                px: float | None = None) -> ExperimentSummary:
    """``tally_sets(parse_counts(source), mu=mu, px=px)`` in one pass.

    Each line goes straight into its set's sums, with the same checks and
    errors as :func:`parse_counts` and :func:`tally_sets`.
    """
    return _summary(*_checked_lines(source), mu, px)


def experiment_skr(
    summary: ExperimentSummary,
    n_pulses: float,
    budget: EpsilonBudget = EpsilonBudget(),
    *,
    ec_efficiency: float = EC_EFFICIENCY,
    channel: ChannelModel | None = None,
    rep_rate_hz: float = _REP_RATE_HZ,
) -> KeyRateReport:
    """Secure key rate extracted from measured tallies.

    The concentration pipeline runs separately on the two checked Y sets and
    the larger resulting phase error bound is kept.  ``mu`` and ``px`` come
    from the summary.  The coin imbalance uses the observed sifted gain, or
    the model gain of ``channel`` when one is given.

    ``n_pulses`` is interpreted as the total number of emitted pulses;
    ``rep_rate_hz`` only converts the per-pulse rate to bits per second.
    """
    if not 0 < n_pulses < math.inf:
        raise ParameterError("n_pulses must be positive and finite")
    if not (math.isfinite(rep_rate_hz) and rep_rate_hz > 0):
        raise ParameterError("rep_rate_hz must be finite and positive")
    _check_ec_efficiency(ec_efficiency)
    mu, px = summary.mu, summary.px
    if mu is None or px is None:
        raise ParameterError("the summary carries no mu and px; pass them to tally_sets")
    SourceParams(intensity=mu, px=px)   # raises on a value outside its domain

    # the sifted sets witness a share px^3 + 2 px (1-px)^2 of all rounds; no
    # gain, observed or modelled, rates counts that n_pulses cannot give; a
    # denormal n_pulses can underflow that many rounds to 0, an infinite gain
    share_x, share_y = set_shares(px)
    rounds = n_pulses * (share_x + 2.0 * share_y)
    q = (summary.n_x + summary.n_y) / rounds if rounds > 0.0 else math.inf
    if q > 1.0:
        raise ParameterError(f"sifted counts imply a gain of {q:.6g} per pulse; "
                             f"n_pulses={n_pulses:g} is too small")
    if channel is not None:
        q = gain(mu, transmittance(channel), channel.dark_count)
    if mu == 0.0 and q > 0.0:   # no light sent; a zero gain fails as a degeneracy below
        raise ParameterError("pulse intensity must be positive where clicks were counted")

    n_x, delta = summary.n_x, coin_imbalance(mu, q)
    coin = _coin_terms(delta)   # once for both Y sets
    chain_bc = _phase_error_chain(n_x, summary.n_ybc, summary.m_ybc, coin, budget)
    chain_ac = _phase_error_chain(n_x, summary.n_yac, summary.m_yac, coin, budget)
    # the set with the larger bound is rated, YBC on a tie; ep_bar ends a chain
    if chain_bc[-1] >= chain_ac[-1]:
        worst = _phase_error_bound(n_x, summary.n_ybc, summary.m_ybc, delta, budget, chain_bc)
    else:
        worst = _phase_error_bound(n_x, summary.n_yac, summary.m_yac, delta, budget, chain_ac)

    # the leak that the key length subtracts is the one reported; the chain
    # has rejected n_x <= 0, and its ep_bar is never negative
    ell, _, lam_ec = _key_length(n_x, worst.ep_bar, binary_entropy(summary.eb_x),
                                 ec_efficiency, budget)
    return KeyRateReport(
        n_pulses=n_pulses,
        lambda_ec=lam_ec,
        ell=ell,
        rate_per_pulse=ell / n_pulses,
        rate_per_second=ell / (n_pulses / rep_rate_hz),
        phase=worst,
        budget=budget,
    )
