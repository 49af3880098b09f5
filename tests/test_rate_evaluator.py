"""The staged rate evaluator against the public chain, over request sequences.

An evaluator keeps the terms of the last ``mu`` and of the last ``px`` it
was given.  Whatever order the requests come in, each must give exactly
what the public functions give step by step, or raise the same error.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from triqss import ChannelModel, EpsilonBudget, ParameterError, ZeroCountError
from triqss import rates
from triqss.finitekey import EC_EFFICIENCY, key_length, phase_error_upper_bound
from triqss.optics import bit_error_x, gain, transmittance
from triqss.roundtable import set_shares

BUDGET = EpsilonBudget()


def public_chain(length_km, n_pulses, channel, mu, px):
    """``(rate_per_pulse, ell, ep_bar, eb_x)`` through the public functions."""
    if not 0 < px < 1:
        raise ParameterError("px must be in (0, 1)")
    eta = transmittance(replace(channel, length_km=length_km))
    q = gain(mu, eta, channel.dark_count)
    ebx = bit_error_x(mu, eta, channel.dark_count, channel.misalignment)
    share_x, share_y = set_shares(px)
    n_x, n_y = n_pulses * share_x * q, n_pulses * share_y * q
    if n_y < 1.0:
        raise ZeroCountError(
            f"expected Y-set count {n_y:.3g} below one event; px too large for this n_pulses"
        )
    bound = phase_error_upper_bound(n_x, n_y, ebx * n_y, mu, q, BUDGET)
    ell = key_length(n_x, bound.ep_bar, ebx, EC_EFFICIENCY, BUDGET)
    return ell / n_pulses, ell, bound.ep_bar, ebx


def outcome(f, *args):
    """The result as reprs (bit-exact, NaN- and sign-aware), or the error's type and text."""
    try:
        return "value", tuple(repr(v) for v in f(*args))
    except rates._SCORED_ZERO as exc:
        return type(exc), str(exc)


# each pool repeats values, so a sequence of picks from it repeats mu, repeats
# px and alternates; the samples cover -0.0, NaN and points outside the domain
MU = st.one_of(
    st.floats(1e-6, 0.1),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -1e-4, 0.3, 0.5, 1e-3, 9e-4]),
)
PX = st.one_of(
    st.floats(0.5, 0.99),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, 1e-9, 0.5, 0.9, 0.999999]),
)
REQUESTS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40)
SETTINGS = dict(max_examples=100, deadline=None)
SPECIAL_MUS = [0.0, -0.0, math.nan, 1e-3]
SPECIAL_PXS = [0.9, -0.0, math.nan, 0.6]
# the same px under new mus, the same mu under new pxs, back and forth
WALK = [(3, 0), (0, 0), (1, 0), (2, 0), (3, 0), (3, 3), (3, 1), (3, 2), (3, 3), (0, 3), (1, 3)]


@settings(**SETTINGS)
@given(
    length_km=st.floats(0.0, 300.0),
    n_pulses=st.sampled_from([1e4, 1e10, 1e14]),
    dark=st.sampled_from([0.0, 2e-8, 1e-4]),
    mus=st.lists(MU, min_size=4, max_size=4),
    pxs=st.lists(PX, min_size=4, max_size=4),
    requests=REQUESTS,
)
@example(length_km=0.0, n_pulses=1e10, dark=2e-8,
         mus=SPECIAL_MUS, pxs=SPECIAL_PXS, requests=WALK)
@example(length_km=50.0, n_pulses=1e10, dark=0.0,
         mus=SPECIAL_MUS, pxs=SPECIAL_PXS, requests=WALK)
@example(length_km=100.0, n_pulses=1e10, dark=2e-8,
         mus=[1e-3, 0.5, math.inf, 2e-3], pxs=[0.9, 0.999999, 0.7, 1.0], requests=WALK)
def test_every_request_matches_the_public_chain(length_km, n_pulses, dark, mus, pxs, requests):
    channel = ChannelModel(dark_count=dark)
    evaluate = rates._rate_evaluator(length_km, n_pulses, channel, EC_EFFICIENCY, BUDGET)
    for i, j in requests:
        mu, px = mus[i], pxs[j]
        expected = outcome(public_chain, length_km, n_pulses, channel, mu, px)
        assert outcome(evaluate, mu, px) == expected, (mu, px)


@settings(**SETTINGS)
@given(
    lengths=st.lists(st.floats(0.0, 300.0), min_size=2, max_size=2, unique=True),
    mus=st.lists(MU, min_size=4, max_size=4),
    pxs=st.lists(PX, min_size=4, max_size=4),
    requests=REQUESTS,
)
@example(lengths=[0.0, 100.0], mus=SPECIAL_MUS, pxs=SPECIAL_PXS, requests=WALK)
def test_interleaved_evaluators_share_no_state(lengths, mus, pxs, requests):
    # two distances and two pulse counts, so a term kept by the wrong
    # evaluator changes the result whichever stage it belongs to
    channel = ChannelModel()
    sides = [(length, n, rates._rate_evaluator(length, n, channel, EC_EFFICIENCY, BUDGET))
             for length, n in zip(lengths, (1e10, 1e12))]
    for i, j in requests:
        for length, n, evaluate in sides:
            expected = outcome(public_chain, length, n, channel, mus[i], pxs[j])
            assert outcome(evaluate, mus[i], pxs[j]) == expected, (length, mus[i], pxs[j])
