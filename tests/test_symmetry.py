"""The two players' procedures are symmetric.

Exchanging the players swaps ``s_a`` with ``s_b`` and ``basis_a`` with
``basis_b``, and maps the 32 round table cells onto themselves.  The X set
maps onto itself at equal net quarter turns, the YBC set onto the YAC set
with turns 0 and 2 exchanged, and discarded cells onto discarded cells.
Turns that differ by 2 swap the lit detector, and the YAC flip swaps the
correct bit with it, so a cell and its partner click alike, detector for
detector once swapped, and err alike.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from triqss import protocol
from triqss.optics import ChannelModel, SourceParams
from triqss.roundtable import CELL_BIT, CELL_TAG, CELL_TURNS, SetTag, _SETTINGS


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
