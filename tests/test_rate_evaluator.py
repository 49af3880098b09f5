"""The staged rate evaluator against the public chain, over request sequences.

An evaluator keeps the terms of every ``mu`` and every ``px`` it was given
in two tables, but not those of a ``mu`` whose stage raised.  Whatever order
the requests come in, each must give exactly what the public functions give
step by step, or raise the same error, and what a fresh evaluator gives.  The
two bodies that every path runs are pinned directly: the phase error chain
to the public steps, with step 2 as their maximum over ``[0, E]``, and the
key length to its formula written here.  Last, the analysis of measured
tallies and the rate evaluator agree on the same expected counts.
"""

import functools
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triqss import ChannelModel, EpsilonBudget, ParameterError, ZeroCountError
from triqss import rates
from triqss.expdata import ExperimentSummary, experiment_skr
from triqss.finitekey import (
    EC_EFFICIENCY,
    _key_length,
    _phase_error_chain,
    expected_to_observed,
    key_length,
    observed_to_expected,
)
from triqss.optics import (
    _coin_terms,
    binary_entropy,
    bit_error_x,
    coin_imbalance,
    gain,
    phase_error_from_y,
    transmittance,
)
from triqss.roundtable import set_shares

BUDGET = EpsilonBudget()


def public_chain(length_km, n_pulses, channel, mu, px, ec_efficiency=EC_EFFICIENCY):
    """``(rate_per_pulse, ell, ep_bar, eb_x)`` through the public functions, one
    step at a time: the phase error chain as ``public_steps`` and the key length
    as ``key_length_formula``, so no body that the evaluator runs is on this side."""
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
    ep_bar = public_steps(n_x, n_y, ebx * n_y, coin_imbalance(mu, q), BUDGET)[-1]
    ell = key_length_formula(n_x, ep_bar, binary_entropy(ebx), ec_efficiency, BUDGET)[0]
    return ell / n_pulses, ell, ep_bar, ebx


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
    n_pulses=st.sampled_from([1e4, 1e10, 1e14, 1e78, 1e90]),
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
@example(length_km=0.0, n_pulses=1e90, dark=2e-8,
         mus=SPECIAL_MUS, pxs=SPECIAL_PXS, requests=WALK)
def test_every_request_matches_the_public_chain(length_km, n_pulses, dark, mus, pxs, requests):
    channel = ChannelModel(dark_count=dark)
    evaluate = rates._rate_evaluator(length_km, n_pulses, channel, EC_EFFICIENCY, BUDGET)
    for i, j in requests:
        mu, px = mus[i], pxs[j]
        expected = outcome(public_chain, length_km, n_pulses, channel, mu, px)
        assert outcome(evaluate, mu, px) == expected, (mu, px)


# each request twice, in shuffled order; with no dark counts mu = 0 has no
# gain, and NaN and -1e-4 leave the gain's domain, so their stage raises
# each time they are requested
@settings(**SETTINGS)
@given(
    length_km=st.floats(0.0, 300.0),
    n_pulses=st.sampled_from([1e4, 1e10, 1e14, 1e90]),
    dark=st.sampled_from([0.0, 2e-8, 1e-4]),
    mus=st.lists(MU, min_size=4, max_size=4),
    pxs=st.lists(PX, min_size=4, max_size=4),
    requests=REQUESTS.flatmap(lambda r: st.permutations(r + r)),
)
@example(length_km=0.0, n_pulses=1e10, dark=0.0,
         mus=[0.0, math.nan, -1e-4, 1e-3], pxs=SPECIAL_PXS, requests=WALK + WALK[::-1])
@example(length_km=100.0, n_pulses=1e10, dark=2e-8,
         mus=[1e-3, 0.5, math.inf, 2e-3], pxs=[0.9, 0.999999, 0.7, 1.0],
         requests=WALK + WALK[::-1])
def test_one_evaluator_answers_as_fresh_ones(length_km, n_pulses, dark, mus, pxs, requests):
    channel = ChannelModel(dark_count=dark)
    evaluator = functools.partial(rates._rate_evaluator, length_km, n_pulses, channel,
                                  EC_EFFICIENCY, BUDGET)
    evaluate = evaluator()
    for i, j in requests:
        mu, px = mus[i], pxs[j]
        assert outcome(evaluate, mu, px) == outcome(evaluator(), mu, px), (mu, px)


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


# past about 1e308 / n_x the leak overflows to inf, and to NaN where
# H(eb_x) = 0 (no dark counts, no misalignment): both give no key
@settings(**SETTINGS)
@given(
    length_km=st.floats(0.0, 300.0),
    n_pulses=st.sampled_from([1e4, 1e10, 1e14]),
    ideal=st.booleans(),
    ec_efficiency=st.one_of(
        st.floats(1.0, 1e308),
        st.sampled_from([1.0, EC_EFFICIENCY, 1e290, 1e300, 1e308, sys.float_info.max]),
    ),
    mus=st.lists(MU, min_size=4, max_size=4),
    pxs=st.lists(PX, min_size=4, max_size=4),
    requests=REQUESTS,
)
@example(length_km=0.0, n_pulses=1e14, ideal=True, ec_efficiency=1e308,
         mus=SPECIAL_MUS, pxs=SPECIAL_PXS, requests=WALK)
def test_every_efficiency_matches_the_public_chain(length_km, n_pulses, ideal, ec_efficiency,
                                                   mus, pxs, requests):
    channel = ChannelModel(dark_count=0.0, misalignment=0.0) if ideal else ChannelModel()
    evaluate = rates._rate_evaluator(length_km, n_pulses, channel, ec_efficiency, BUDGET)
    for i, j in requests:
        mu, px = mus[i], pxs[j]
        expected = outcome(public_chain, length_km, n_pulses, channel, mu, px, ec_efficiency)
        assert outcome(evaluate, mu, px) == expected, (mu, px)


def public_steps(n_x, n_y, m_y, delta, budget):
    """The phase error chain's intermediates through the public steps.

    Step 2 is the maximum of ``phase_error_from_y`` over ``[0, E]``: the
    pointwise value up to its peak at ``(1 - 2 delta)^2``, 1 from there on.
    The imbalance is checked first, as where the chain's coin terms are built."""
    phase_error_from_y(0.0, delta)
    m_y_expected = observed_to_expected(m_y, n_y, budget.eps_a, "upper")
    eb_y_expected = min(m_y_expected / n_y, 1.0)
    ep_expected = phase_error_from_y(eb_y_expected, delta)
    if eb_y_expected >= (1.0 - 2.0 * delta) ** 2:
        ep_expected = 1.0
    m_p_observed = expected_to_observed(ep_expected * n_x, n_x, budget.eps_b, "upper")
    return (m_y_expected, eb_y_expected, ep_expected, m_p_observed,
            min(m_p_observed / n_x, 1.0))


def chain_steps(n_x, n_y, m_y, delta, budget):
    """The same intermediates of ``_phase_error_chain``."""
    (m_y_expected, eb_y_expected, _, ep_expected,
     _, m_p_observed, ep_bar) = _phase_error_chain(n_x, n_y, m_y, _coin_terms(delta), budget)
    return m_y_expected, eb_y_expected, ep_expected, m_p_observed, ep_bar


COUNTS = st.one_of(st.floats(1.0, 1e90), st.sampled_from([1.0, 1e4, 1e10, 1e76, 1e78, 1e90]))
EPS = st.sampled_from([1e-10, 1e-3, 0.5, 1e-30, 1e-300])


# the counts are valid here: the chain checks them once, up front, with
# its own text; a delta out of [0, 1/2] raises in both before step 1, where
# its coin terms are built, and the overflow of the Kato closed form past
# about 1e77 trials raises the same error in both
@settings(**SETTINGS)
@given(
    n_x=COUNTS,
    n_y=COUNTS,
    error_share=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
    delta=st.one_of(st.floats(0.0, 0.5),
                    st.sampled_from([0.0, 0.5, -0.0, -1e-3, 0.6, math.nan])),
    eps_a=EPS,
    eps_b=EPS,
)
@example(n_x=1e10, n_y=1e90, error_share=0.015, delta=0.02, eps_a=1e-10, eps_b=1e-10)
@example(n_x=1e10, n_y=1e90, error_share=0.015, delta=0.6, eps_a=1e-10, eps_b=1e-10)
@example(n_x=1e10, n_y=1e9, error_share=1.0, delta=0.5, eps_a=0.5, eps_b=1e-300)
def test_phase_error_chain_matches_the_public_steps(n_x, n_y, error_share, delta,
                                                    eps_a, eps_b):
    budget = EpsilonBudget(eps_a=eps_a, eps_b=eps_b)
    m_y = n_y * error_share
    assert (outcome(chain_steps, n_x, n_y, m_y, delta, budget)
            == outcome(public_steps, n_x, n_y, m_y, delta, budget))


def key_length_formula(n_x, ep_bar, h_eb_x, ec_efficiency, budget):
    """``(ell, raw, lambda_EC)`` written from the formula: ``n_x (1 - H(min(ep_bar,
    1/2))) - n_x f H(eb_x) - log2(2 / eps_c) - log2(1 / (4 eps_pa^2))``, where the
    leak overflows only if its value does, and is 0 where ``H(eb_x) = 0``,
    however far ``n_x f`` overflows."""
    lam_ec = n_x * ec_efficiency * h_eb_x
    if not math.isfinite(lam_ec):
        lam_ec = n_x * (ec_efficiency * h_eb_x)
    raw = (n_x * (1.0 - binary_entropy(min(ep_bar, 0.5))) - lam_ec
           - (1.0 - math.log2(budget.eps_c)) - (-2.0 - 2.0 * math.log2(budget.eps_pa)))
    return (math.floor(raw) if raw > 0.0 else 0), raw, lam_ec


def chain_then(key_length_of, n_x, n_y, m_y, delta, h_eb_x, ec_efficiency, budget):
    """``ep_bar`` of the phase error chain, then the key length of it."""
    ep_bar = _phase_error_chain(n_x, n_y, m_y, _coin_terms(delta), budget)[-1]
    return (ep_bar, *key_length_of(n_x, ep_bar, h_eb_x, ec_efficiency, budget))


# the key length of each ep_bar the chain reaches, above 1/2 included, with
# and without a leak that overflows; bad deltas raise where their coin
# terms are built and bad counts in the chain, before the key length, on
# both sides alike
@settings(**SETTINGS)
@given(
    n_x=st.one_of(COUNTS, st.sampled_from([0.0, -1.0, math.nan, math.inf])),
    n_y=st.one_of(COUNTS, st.sampled_from([0.0, -1.0, math.nan, math.inf])),
    error_share=st.one_of(st.floats(0.0, 1.0),
                          st.sampled_from([0.0, 1.0, 1.0, -0.1, 1.5, math.nan])),
    delta=st.one_of(st.floats(0.0, 0.5),
                    st.sampled_from([0.0, 0.5, -0.0, -1e-3, 0.6, math.nan])),
    h_eb_x=st.one_of(st.floats(0.0, 1.0), st.just(0.0)),
    ec_efficiency=st.sampled_from([1.0, EC_EFFICIENCY, 1e308]),
    eps_a=EPS,
    eps_b=EPS,
    eps_c=EPS,
    eps_pa=EPS,
)
@example(n_x=1.0, n_y=1.0, error_share=1.0, delta=0.0, h_eb_x=0.0,
         ec_efficiency=1.0, eps_a=1e-10, eps_b=1e-10, eps_c=1e-10, eps_pa=1e-10)
@example(n_x=1e10, n_y=1e6, error_share=0.015, delta=0.6, h_eb_x=0.1,
         ec_efficiency=EC_EFFICIENCY, eps_a=1e-10, eps_b=1e-10, eps_c=1e-10, eps_pa=1e-10)
@example(n_x=1e10, n_y=1e9, error_share=0.0, delta=0.0, h_eb_x=0.0,
         ec_efficiency=1e308, eps_a=1e-10, eps_b=1e-10, eps_c=1e-10, eps_pa=1e-10)
@example(n_x=1e10, n_y=1e9, error_share=0.4, delta=0.3, h_eb_x=0.05,
         ec_efficiency=1.0, eps_a=1e-10, eps_b=1e-10, eps_c=1e-10, eps_pa=1e-10)
def test_key_length_matches_its_formula(n_x, n_y, error_share, delta, h_eb_x,
                                        ec_efficiency, eps_a, eps_b, eps_c, eps_pa):
    budget = EpsilonBudget(eps_c=eps_c, eps_pa=eps_pa, eps_a=eps_a, eps_b=eps_b)
    args = (n_x, n_y, n_y * error_share, delta, h_eb_x, ec_efficiency, budget)
    assert (outcome(chain_then, _key_length, *args)
            == outcome(chain_then, key_length_formula, *args))


def public_key_length(n_x, ep_bar, eb_x, ec_efficiency, budget):
    # key_length first, so that its checks raise before the unchecked body runs
    return (key_length(n_x, ep_bar, eb_x, ec_efficiency, budget),
            _key_length(n_x, ep_bar, binary_entropy(eb_x), ec_efficiency, budget)[1])


def formula_key_length(n_x, ep_bar, eb_x, ec_efficiency, budget):
    h_eb_x = binary_entropy(eb_x)
    if not ep_bar >= 0.0:
        raise ParameterError("phase error rate ep_bar must be nonnegative")
    return key_length_formula(n_x, ep_bar, h_eb_x, ec_efficiency, budget)[:2]


# the public functions take any phase error rate at or above 0: at or above
# 1/2 is no key; a negative or NaN rate is a parameter error, as a bit error
# rate outside [0, 1] is
@settings(**SETTINGS)
@given(
    n_x=st.one_of(COUNTS, st.sampled_from([1.0, 1e300])),
    ep_bar=st.one_of(st.floats(0.0, 1.0),
                     st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.inf, -1e-3, math.nan])),
    eb_x=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, -0.1, 1.5, math.nan])),
    ec_efficiency=st.sampled_from([1.0, EC_EFFICIENCY, 1e308]),
)
@example(n_x=1e300, ep_bar=0.1, eb_x=0.0, ec_efficiency=1e308)
def test_public_key_length_matches_its_formula(n_x, ep_bar, eb_x, ec_efficiency):
    args = (n_x, ep_bar, eb_x, ec_efficiency, BUDGET)
    assert outcome(public_key_length, *args) == outcome(formula_key_length, *args)


# analyze's path and sweep's path on the same counts: finite_rate's expected
# tallies, given to experiment_skr with the model gain, give the same key
@pytest.mark.parametrize("length_km", [0.0, 50.0, 100.0, 150.0, 200.0])
@pytest.mark.parametrize("mu", [3e-4, 1e-3, 3e-3])
@pytest.mark.parametrize("px", [0.7, 0.9])
def test_analysis_of_the_expected_tallies_matches_finite_rate(length_km, mu, px):
    n_pulses = 1e10
    channel = ChannelModel(length_km=length_km)
    point = rates.finite_rate(length_km, mu, px, n_pulses, channel)
    q = gain(mu, transmittance(channel), channel.dark_count)
    share_x, share_y = set_shares(px)
    n_x, n_y = n_pulses * share_x * q, n_pulses * share_y * q
    summary = ExperimentSummary(
        n_x=n_x, m_x=point.eb_x * n_x,
        n_ybc=n_y, m_ybc=point.eb_x * n_y,
        n_yac=n_y, m_yac=point.eb_x * n_y,
        mu=mu, px=px,
    )
    report = experiment_skr(summary, n_pulses, channel=channel)
    assert (repr(report.phase.ep_bar), report.ell) == (repr(point.ep_bar), point.ell)
