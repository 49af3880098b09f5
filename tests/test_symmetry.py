"""The two players' procedures are symmetric.

Exchanging the players swaps ``s_a`` with ``s_b`` and ``basis_a`` with
``basis_b``, and maps the 32 round table cells onto themselves.  The X set
maps onto itself at equal net quarter turns, the YBC set onto the YAC set
with turns 0 and 2 exchanged, and discarded cells onto discarded cells.
Turns that differ by 2 swap the lit detector, and the YAC flip swaps the
correct bit with it, so a cell and its partner click alike, detector for
detector once swapped, and err alike.

The simulator draws the two Y sets alike: given both sets' detections, a
Y detection falls in YBC with chance 1/2, and given their errors, YBC's
share of them is hypergeometric.

The analysis is symmetric too: exchanging the two Y sets' counts leaves the
key rate as it was, and a count table transformed by the exchange tallies to
the same X set with the Y sets swapped, and rates alike.
"""

import csv
import math
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from triqss import protocol
from triqss.cli import _infer_from_name, main
from triqss.expdata import _SLOT_OF_TRIPLE, experiment_skr, tally_table
from triqss.optics import ChannelModel, SourceParams
from triqss.roundtable import (CELL_BIT, CELL_QUARTERS, CELL_TAG, CELL_TURNS, SetCounts, SetTag,
                               _SETTINGS)

from conftest import FIXTURES
from test_protocol import binomial_two_sided_p

TABLES = sorted(FIXTURES.glob("tableIII*_mu*.csv"))


def exchange_players() -> list[int]:
    """Each cell's partner, the cell of the same round with the players exchanged."""
    cell_of = {settings: cell for cell, settings in enumerate(zip(*_SETTINGS))}
    return [cell_of[s_b, s_a, basis_b, basis_a, basis_c]
            for s_a, s_b, basis_a, basis_b, basis_c in zip(*_SETTINGS)]


PARTNER = exchange_players()
PARTNER_TAG = {SetTag.X_SET: SetTag.X_SET, SetTag.YBC_SET: SetTag.YAC_SET,
               SetTag.YAC_SET: SetTag.YBC_SET, SetTag.DISCARD: SetTag.DISCARD}


def detectors_swap(cell: int) -> bool:
    """Whether the cell's partner lights the other detector: turns 2 apart."""
    return (CELL_TURNS[cell] - CELL_TURNS[PARTNER[cell]]) % 4 == 2


def test_the_exchange_is_an_involution_of_the_round_table():
    assert sorted(PARTNER) == list(range(32))
    assert [PARTNER[partner] for partner in PARTNER] == list(range(32))
    assert sum(tag == SetTag.X_SET for tag in CELL_TAG) == 4
    assert sum(tag == SetTag.YBC_SET for tag in CELL_TAG) == 4
    for cell, partner in enumerate(PARTNER):
        tag, turns = CELL_TAG[cell], (CELL_TURNS[cell], CELL_TURNS[partner])
        assert CELL_TAG[partner] == PARTNER_TAG[tag]
        if tag == SetTag.X_SET:
            assert turns[0] == turns[1]
        elif tag == SetTag.YBC_SET:
            assert sorted(turns) == [0, 2]
        if tag != SetTag.DISCARD:
            # the error detector swaps with the lit one
            assert CELL_BIT[partner] == CELL_BIT[cell] ^ detectors_swap(cell)


DARK = st.one_of(st.just(0.0), st.floats(-10.0, -3.0).map(lambda x: 10.0 ** x))


@seed(20241008)
@settings(max_examples=200, deadline=None)
@given(mu=st.one_of(st.just(0.0), st.floats(-8.0, 1.0).map(lambda x: 10.0 ** x)),
       length_km=st.floats(0.0, 400.0), eta_d=st.floats(0.01, 1.0), dark=DARK,
       misalignment=st.floats(0.0, 0.5))
def test_partners_click_alike(mu, length_km, eta_d, dark, misalignment):
    channel = ChannelModel(length_km=length_km, det_efficiency=eta_d, dark_count=dark,
                           misalignment=misalignment)
    lone1, lone2, none, double = protocol._cell_probabilities(SourceParams(mu, 0.5), channel)
    for cell, partner in enumerate(PARTNER):
        lone = (lone1[cell], lone2[cell])
        if detectors_swap(cell):
            lone = lone[::-1]
        assert (lone1[partner], lone2[partner]) == lone
        assert (none[partner], double[partner]) == (none[cell], double[cell])


def hypergeometric_two_sided_p(k, n, n_other, errors):
    """Exact two-sided tail of ``k`` of ``errors`` errors in a set of ``n``
    detections, beside a set of ``n_other``: Fisher's test, hypergeometric
    given both sets' detections and errors, twice the smaller of
    ``P(K <= k)`` and ``P(K >= k)``, at most 1."""
    def log_choose(total, part):
        return math.lgamma(total + 1) - math.lgamma(part + 1) - math.lgamma(total - part + 1)

    head = log_choose(n + n_other, errors)

    def pmf(j):
        return math.exp(log_choose(n, j) + log_choose(n_other, errors - j) - head)

    lowest, highest = max(0, errors - n_other), min(n, errors)
    lower = math.fsum(pmf(j) for j in range(lowest, k + 1))
    upper = math.fsum(pmf(j) for j in range(k, highest + 1))
    return min(1.0, 2.0 * min(lower, upper))


def test_hypergeometric_tail_of_a_small_case():
    # two errors among two sets of two: P(K = 0) = P(K = 2) = 1/6
    assert hypergeometric_two_sided_p(0, 2, 2, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert hypergeometric_two_sided_p(1, 2, 2, 2) == 1.0
    assert hypergeometric_two_sided_p(2, 2, 2, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestSimulatedYSets:
    """The simulator's two Y sets, over fixed seeds, against the symmetry.

    0 km, mu 9e-4, px 0.5 and the default channel, 1e8 rounds, about 9,000
    detections per Y set.  Seeds, settings and the bound (exact two-sided
    tail at least 1e-3, per seed and pooled) were fixed before the first run.
    """

    SEEDS = (1501, 1502, 1503)
    SOURCE = SourceParams(intensity=9e-4, px=0.5)
    CHANNEL = ChannelModel(length_km=0.0)
    ROUNDS = 10 ** 8
    MIN_TAIL = 1e-3

    @pytest.fixture(scope="class")
    def tallies(self):
        return [protocol.run_protocol(self.SOURCE, self.CHANNEL, seed=s,
                                      max_rounds=self.ROUNDS).tallies for s in self.SEEDS]

    def test_a_y_detection_is_ybc_with_chance_one_half(self, tallies):
        for t in [*tallies, SetCounts(n_ybc=sum(t.n_ybc for t in tallies),
                                      n_yac=sum(t.n_yac for t in tallies))]:
            assert t.n_ybc >= 8000 and t.n_yac >= 8000, t
            assert binomial_two_sided_p(t.n_ybc, t.n_y, 0.5) >= self.MIN_TAIL, t

    def test_ybc_holds_a_hypergeometric_share_of_the_y_errors(self, tallies):
        # pooling keeps the test exact: every seed errs at one rate
        pooled = [sum(getattr(t, f) for t in tallies) for f in ("n_ybc", "n_yac", "m_ybc", "m_yac")]
        for n_ybc, n_yac, m_ybc, m_yac in [(t.n_ybc, t.n_yac, t.m_ybc, t.m_yac)
                                           for t in tallies] + [pooled]:
            assert m_ybc + m_yac >= 100
            p = hypergeometric_two_sided_p(m_ybc, n_ybc, n_yac, m_ybc + m_yac)
            assert p >= self.MIN_TAIL, (n_ybc, n_yac, m_ybc, m_yac)


def exchange_triples() -> dict:
    """Each count table triple's partner under the player exchange.

    A triple is a cell's quarter turns with the dealer's extra pi added on
    phase_c.  Its partner is the partner cell's quarter turns, which are the
    triple's with phase_a and phase_b exchanged.  Where the partners light
    different detectors, the extra pi is moved too, so that each count
    stays on its detector and keeps its meaning, correct bit or error.
    """
    quarters = list(zip(*CELL_QUARTERS))
    partner_of = {}
    for cell, partner in enumerate(PARTNER):
        (q_a, q_b, q_c), (p_a, p_b, p_c) = quarters[cell], quarters[partner]
        for extra in (0, 1):
            partner_of[q_a, q_b, q_c + 2 * extra] = (
                p_a, p_b, p_c + 2 * (extra ^ detectors_swap(cell)))
    return partner_of


TRIPLE_PARTNER = exchange_triples()


def test_the_exchange_maps_table_triples_onto_the_exchanged_sets():
    assert sorted(TRIPLE_PARTNER) == sorted(TRIPLE_PARTNER.values()) == sorted(_SLOT_OF_TRIPLE)
    moved = 0
    for (a, b, c), partner in TRIPLE_PARTNER.items():
        tag, lit = _SLOT_OF_TRIPLE[a, b, c]
        assert _SLOT_OF_TRIPLE[partner] == (PARTNER_TAG[tag], lit)
        assert partner[:2] == (b, a) and partner[2] % 2 == c % 2
        moved += tag in (SetTag.YBC_SET, SetTag.YAC_SET) and partner[2] != c
    # the lit detector swaps on every Y-set triple
    assert moved == 16


def summary_of(path):
    mu, px = _infer_from_name(str(path))
    return tally_table(path, mu=mu, px=px)


def exchange_y_sets(summary):
    return replace(summary, n_ybc=summary.n_yac, m_ybc=summary.m_yac,
                   n_yac=summary.n_ybc, m_yac=summary.m_ybc)


@pytest.mark.parametrize("channel", [None, ChannelModel(length_km=5.0)],
                         ids=["observed-gain", "model-gain"])
@pytest.mark.parametrize("n_pulses", [1e9, 5e10, 1e12])
@pytest.mark.parametrize("table", TABLES, ids=lambda path: path.stem)
def test_exchanging_the_y_sets_keeps_the_key(table, n_pulses, channel):
    summary = summary_of(table)
    rated, exchanged = (experiment_skr(s, n_pulses, channel=channel)
                        for s in (summary, exchange_y_sets(summary)))
    assert (exchanged.ell, exchanged.phase.ep_bar) == (rated.ell, rated.phase.ep_bar)


@pytest.mark.parametrize("table", TABLES, ids=lambda path: path.stem)
def test_an_exchanged_table_tallies_and_rates_alike(table, tmp_path, capsys):
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[:3] = map(str, TRIPLE_PARTNER[tuple(int(v) for v in row[:3])])
    # the same file name, from which analyze reads mu and px
    exchanged = tmp_path / table.name
    with open(exchanged, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    assert summary_of(exchanged) == exchange_y_sets(summary_of(table))
    for gain in ([], ["--analytic-gain", "--length-km", "5"]):
        assert main(["analyze", str(table), str(exchanged), *gain]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        assert len(lines) == 3 and lines[1] == lines[2]
