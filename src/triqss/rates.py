"""Asymptotic and finite-size secure key rates, with parameter optimization.

The finite-size path models an experiment of ``n_pulses`` rounds by its
expected set sizes: ``n_X = N px^3 Q`` key-set detections and
``n_Y = N px (1-px)^2 Q`` detections in each checked set, with the Y-basis
error rate taken equal to the X-basis model value.  Those expected tallies
are pushed through the concentration pipeline exactly as observed counts
would be.

One code path computes that rate, a per-distance evaluator of
``(mu, px)`` built in three stages, following what each term depends on:

- per distance, once: the checks of the pulse count (positive and
  finite), the length (through ``ChannelModel``) and the error-correction
  efficiency, and the transmittance; the budget derived its own terms
  when it was built;
- per basis probability ``px``: its check, and the set shares times the
  pulse count;
- per intensity ``mu``: the gain ``Q`` and ``EbX`` from one evaluation of
  the optics' gain terms, ``H(EbX)`` for the error-correction leak, and the
  coin terms ``optics._coin_terms`` of the imbalance (its peak ``e*`` and
  the three factors of step 2); an imbalance out of its domain is not
  raised here but after the count check, where the public functions raise
  it.

Each of the last two stages is a term table local to the evaluator, a dict
from ``px`` to the two set shares times the pulse count and from ``mu`` to
``(Q, EbX, H(EbX), coin terms)``: a stage runs once per distinct argument,
and an argument whose stage raises is not stored, so it raises again each
time.
What is left per request is the pair's counts and the two bodies of
:mod:`triqss.finitekey` that every other path runs too: the phase error
chain ``_phase_error_chain``, then the floored key length ``_key_length``,
both built from the scalar cores that the public functions wrap.  The
results, and the error a failing point raises, are those of the public
functions step by step, step 2 being the maximum of
``optics.phase_error_from_y`` over ``[0, E]``.  ``finite_rate`` is that
evaluator plus the ``RatePoint`` wrap that the optimizer's best point
shares.  The asymptotic rate takes that formula at ``EbX`` itself: there
``EbX <= 1/2``, and past the formula's peak its value is at least 1/2,
which leaves no key either way.

An error in a per-distance argument raises :class:`ParameterError` from
every entry point: ``finite_rate``, ``optimize_params`` and
``sweep_distance`` for the pulse count, the length and the efficiency, and
``asymptotic_sweep`` for the length and the efficiency.  Only a working
point ``(mu, px)`` that fails scores zero in the optimizer, so bad input
never comes back as an abort row or an ``AllAbortError``.  The errors that
score zero (``_SCORED_ZERO``) are :class:`ProtocolAbortError` (an expected
Y set below one event), :class:`ParameterError` (a point outside the
model's domain), :class:`DegenerateGainError` and
:class:`NumericalDegeneracyError`.  The last is an overflow of the Kato
closed form, which sets in once a trial count passes about 1e77: when no
point at a distance yields a key and one of them overflowed, the optimizer
raises that error instead of ``AllAbortError``, so a huge pulse count is
not reported as "no key".

``optimize_params`` maximizes the finite rate over the pulse intensity and
the basis probability by coordinate descent with golden-section line
searches (the rate is smooth and single-peaked along each coordinate in the
regimes of interest).  The search is fully deterministic: fixed restart
points, no randomness.  It builds one evaluator per call, which scores each
request; the best point is the first request with the highest rate, kept
with its result as the search scores it.  A line search is a pure function
of its fixed coordinate, and the last sweep of a restart repeats the
previous one, as do restarts that converge to the same point; such a repeat
is replayed from the trace instead of run again.  Over 0..260 km in 5 km
steps at ``N = 1e10`` the sweep builds 53 evaluators, runs 658 of the 1,028
line searches it asks for, and evaluates 15,828 of the 24,363 points
requested, best points included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    AllAbortError,
    DegenerateGainError,
    NumericalDegeneracyError,
    ParameterError,
    ProtocolAbortError,
    ZeroCountError,
)
from .finitekey import EC_EFFICIENCY, EpsilonBudget, golden_max
from .finitekey import _check_ec_efficiency, _key_length, _phase_error_chain
from .optics import (
    ChannelModel,
    _coin_terms,
    _gain_and_bit_error,
    binary_entropy,
    coin_imbalance,
    phase_error_from_y,
    transmittance,
)
from .roundtable import set_shares

# search box of the optimizers: intensity, basis probability
MU_BOUNDS = (1e-6, 1e-1)
PX_BOUNDS = (0.5, 0.99)
# coordinate-descent sweeps per restart
MAX_SWEEPS = 8


@dataclass(frozen=True)
class RatePoint:
    """Key rate at one working point; ``ell == 0`` is no key."""

    length_km: float
    mu: float
    px: float
    rate_per_pulse: float
    ell: float
    ep_bar: float
    eb_x: float
    n_pulses: float


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found plus the full evaluation trace."""

    best: RatePoint
    trace: list
    n_evals: int


def _asymptotic_point(mu: float, channel: ChannelModel, ec_efficiency: float):
    """``(rate, eb_x, ep)`` per pulse in the infinite-key limit at full sifting:
    ``R = Q (1 - f H(EbX) - H(Ep))``, clamped at zero, with the Y-basis error
    rate modeled by the X-basis value; ``ep`` uncapped at 1/2 and
    ``ec_efficiency`` unchecked."""
    q, ebx = _gain_and_bit_error(mu, transmittance(channel), channel.dark_count,
                                 channel.misalignment)
    ep = phase_error_from_y(ebx, coin_imbalance(mu, q))
    # a phase error rate at or above one half means all secrecy is lost;
    # H's symmetric dip above 1/2 must not resurrect the rate
    rate = q * (1.0 - ec_efficiency * binary_entropy(ebx) - binary_entropy(min(ep, 0.5)))
    return max(rate, 0.0), ebx, ep


def _rate_evaluator(
    length_km: float,
    n_pulses: float,
    channel: ChannelModel,
    ec_efficiency: float,
    budget: EpsilonBudget,
):
    """Finite-size rate at one distance, as a function of ``(mu, px)``.

    Checks the pulse count, the length and the efficiency once, raising
    :class:`ParameterError`, and derives the transmittance once.  The
    returned ``evaluate(mu, px)`` gives ``(rate_per_pulse, ell, ep_bar,
    eb_x)`` and raises what :func:`finite_rate` raises at that working point.
    It keeps the terms of each ``mu`` and each ``px`` it was given in two
    tables (see the module docstring); nothing else outlives a call.
    """
    if not 0 < n_pulses < math.inf:
        raise ParameterError("n_pulses must be positive and finite")
    channel = replace(channel, length_km=length_km)
    _check_ec_efficiency(ec_efficiency)
    eta = transmittance(channel)
    dark, misalignment = channel.dark_count, channel.misalignment
    # the per-distance term tables: mu -> (q, eb_x, H(eb_x), coin terms) and
    # px -> (N share_x, N share_y); a mu or px whose stage raises is not stored
    by_mu: dict[float, tuple] = {}
    by_px: dict[float, tuple[float, float]] = {}

    def evaluate(mu: float, px: float) -> tuple[float, int, float, float]:
        counts = by_px.get(px)
        if counts is None:
            if not 0 < px < 1:
                raise ParameterError("px must be in (0, 1)")
            share_x, share_y = set_shares(px)
            counts = by_px[px] = (n_pulses * share_x, n_pulses * share_y)
        terms = by_mu.get(mu)
        if terms is None:
            q, ebx = _gain_and_bit_error(mu, eta, dark, misalignment)
            h_ebx = binary_entropy(ebx)
            try:
                coin = _coin_terms(coin_imbalance(mu, q))
            except ParameterError:
                coin = None   # raised below, after the checks that come first
            terms = by_mu[mu] = (q, ebx, h_ebx, coin)
        q, ebx, h_ebx, coin = terms
        n_share_x, n_share_y = counts

        n_x = n_share_x * q
        n_y = n_share_y * q
        if n_y < 1.0:
            raise ZeroCountError(
                f"expected Y-set count {n_y:.3g} below one event; px too large for this n_pulses"
            )
        if coin is None:
            coin_imbalance(mu, q)   # raises the error caught above
        m_y = ebx * n_y

        ep_bar = _phase_error_chain(n_x, n_y, m_y, coin, budget)[6]
        ell = _key_length(n_x, ep_bar, h_ebx, ec_efficiency, budget)[0]
        return ell / n_pulses, ell, ep_bar, ebx

    return evaluate


def _rate_point(length_km: float, n_pulses: float, mu: float, px: float,
                result: tuple) -> RatePoint:
    """The :class:`RatePoint` of ``result = evaluate(mu, px)``, for an
    evaluator at ``length_km``."""
    rate, ell, ep_bar, ebx = result
    return RatePoint(length_km=length_km, mu=mu, px=px, rate_per_pulse=rate, ell=ell,
                     ep_bar=ep_bar, eb_x=ebx, n_pulses=n_pulses)


def finite_rate(
    length_km: float,
    mu: float,
    px: float,
    n_pulses: float,
    channel: ChannelModel,
    ec_efficiency: float = EC_EFFICIENCY,
    budget: EpsilonBudget = EpsilonBudget(),
) -> RatePoint:
    """Finite-size key rate from expected tallies at one working point.

    Both checked Y sets have identical expected tallies under the error
    model, so a single concentration pipeline covers the worst set.  Raises
    :class:`ZeroCountError` when a checked set is expected to stay empty
    (``px`` too close to one for the given ``n_pulses``).
    """
    evaluate = _rate_evaluator(length_km, n_pulses, channel, ec_efficiency, budget)
    return _rate_point(length_km, n_pulses, mu, px, evaluate(mu, px))


# errors that score a working point zero in the optimizer
_SCORED_ZERO = (ProtocolAbortError, ParameterError, DegenerateGainError,
                NumericalDegeneracyError)
# restart points, all inside the search box
_RESTARTS = ((1e-3, 0.90), (3e-4, 0.80), (3e-3, 0.95))
_LOG_MU_BOUNDS = (math.log10(MU_BOUNDS[0]), math.log10(MU_BOUNDS[1]))


def optimize_params(
    length_km: float,
    n_pulses: float,
    channel: ChannelModel,
    ec_efficiency: float = EC_EFFICIENCY,
    budget: EpsilonBudget = EpsilonBudget(),
    *,
    extra_starts: tuple = (),
) -> OptimizationResult:
    """Maximize the finite rate over (mu, px) at a fixed distance.

    Coordinate descent alternating golden-section searches over ``log10(mu)``
    in ``MU_BOUNDS`` and ``px`` in ``PX_BOUNDS``, restarted from three fixed
    points plus any ``extra_starts``.  Working points that abort or leave the
    model's domain score zero; a bad pulse count, length or efficiency raises
    :class:`ParameterError` before the search.  When no evaluated point
    yields a key, raises :class:`NumericalDegeneracyError` if a point failed
    with one, else :class:`AllAbortError`.

    One per-distance evaluator scores every request.  ``best`` is the first
    request with the highest rate, kept with its result as it is scored, so
    it is never evaluated again.  A line search repeated with the same fixed
    coordinate is not run again: its requests are copied from the trace and
    its result is reused.  ``trace`` and ``n_evals`` record every request,
    replays included, in the order a search without replay makes them.
    """
    evaluate = _rate_evaluator(length_km, n_pulses, channel, ec_efficiency, budget)
    trace: list[tuple] = []
    overflow = None   # the first NumericalDegeneracyError a point raised
    # the first request with the highest rate, if positive, as (mu, px,
    # evaluate(mu, px)); a replay repeats a rate already seen, so never displaces it
    best_rate, best = 0.0, None

    def rate_at(mu: float, px: float) -> float:
        nonlocal overflow, best_rate, best
        try:
            result = evaluate(mu, px)
        except _SCORED_ZERO as exc:
            if overflow is None and isinstance(exc, NumericalDegeneracyError):
                overflow = exc
            r = 0.0
        else:
            r = result[0]
            if r > best_rate:
                best_rate, best = r, (mu, px, result)
        trace.append((mu, px, r))
        return r

    # the line searches run so far: (coordinate, fixed value, its sign) ->
    # (x, f(x), start, end), trace[start:end] being the requests it made; the
    # sign tells -0.0 from 0.0, which the trace records apart
    searches: dict[tuple, tuple] = {}

    def line_search(coordinate: str, fixed: float, f, bounds) -> tuple[float, float]:
        # a line search is a pure function of its fixed coordinate, so a
        # repeat replays its requests, which would score as they did before
        key = (coordinate, fixed, math.copysign(1.0, fixed))
        done = searches.get(key)
        if done is not None:
            x, fx, start, end = done
            trace.extend(trace[start:end])
            return x, fx
        start = len(trace)
        x, fx = golden_max(f, *bounds, tol=1e-4)
        searches[key] = (x, fx, start, len(trace))
        return x, fx

    for mu0, px0 in (*_RESTARTS, *extra_starts):
        mu, px = float(mu0), float(px0)
        rate = rate_at(mu, px)
        for _ in range(MAX_SWEEPS):
            sweep_start = rate
            # accept each line-search move only if it improves; the search
            # can land on a dead plateau when most of the slice rates zero
            lmu, r_mu = line_search("mu", px, lambda l: rate_at(10.0 ** l, px), _LOG_MU_BOUNDS)
            if r_mu > rate:
                mu, rate = 10.0 ** lmu, r_mu
            new_px, r_px = line_search("px", mu, lambda p: rate_at(mu, p), PX_BOUNDS)
            if r_px > rate:
                px, rate = new_px, r_px
            if rate <= sweep_start * (1.0 + 1e-9):
                break

    if best_rate <= 0.0:
        message = f"no positive key rate found at L={length_km} km for n_pulses={n_pulses:g}"
        if overflow is not None:
            raise NumericalDegeneracyError(f"{message}: {overflow}") from overflow
        raise AllAbortError(message)
    return OptimizationResult(best=_rate_point(length_km, n_pulses, *best), trace=trace,
                              n_evals=len(trace))


def _abort_point(length_km: float, n_pulses: float) -> RatePoint:
    """The row of a distance with no key: no key length and no working point."""
    return RatePoint(
        length_km=length_km, mu=math.nan, px=math.nan,
        rate_per_pulse=0.0, ell=0, ep_bar=math.nan, eb_x=math.nan, n_pulses=n_pulses,
    )


def sweep_distance(
    lengths,
    n_pulses: float,
    channel: ChannelModel,
    ec_efficiency: float = EC_EFFICIENCY,
    budget: EpsilonBudget = EpsilonBudget(),
) -> list[RatePoint]:
    """Optimized finite rate at each distance, returned in ascending order.

    Distances are processed from the farthest inward, warm-starting each
    optimization with the previous optimum.  Because the rate at fixed
    parameters can only grow as the channel shortens, this guarantees the
    reported curve is monotone nonincreasing in distance.

    A distance where :func:`optimize_params` raises :class:`AllAbortError`
    gives an abort row; its :class:`NumericalDegeneracyError` propagates.
    """
    points: list[RatePoint] = []
    warm: tuple = ()
    for length in sorted(set(float(l) for l in lengths), reverse=True):
        try:
            result = optimize_params(
                length, n_pulses, channel, ec_efficiency, budget,
                extra_starts=warm,
            )
            points.append(result.best)
            warm = ((result.best.mu, result.best.px),)
        except AllAbortError:
            points.append(_abort_point(length, n_pulses))
    points.reverse()
    return points


def asymptotic_sweep(
    lengths,
    channel: ChannelModel,
    ec_efficiency: float = EC_EFFICIENCY,
) -> list[RatePoint]:
    """Infinite-key rate with optimized intensity at each distance.

    Sifting is free in this limit, so ``px`` is reported as 1 and the key
    length as infinite.  A distance with no key gives an abort row, as in
    :func:`sweep_distance`.
    """
    _check_ec_efficiency(ec_efficiency)
    points = []
    for length in sorted(set(float(l) for l in lengths)):
        ch = replace(channel, length_km=length)

        def rate_at_log(l: float) -> float:
            try:
                return _asymptotic_point(10.0 ** l, ch, ec_efficiency)[0]
            except _SCORED_ZERO:
                return 0.0

        lmu, rate = golden_max(rate_at_log, *_LOG_MU_BOUNDS, tol=1e-5)
        if rate <= 0.0:
            points.append(_abort_point(length, math.inf))
            continue
        mu = 10.0 ** lmu
        _, ebx, ep = _asymptotic_point(mu, ch, ec_efficiency)
        points.append(RatePoint(
            length_km=length, mu=mu, px=1.0,
            rate_per_pulse=rate, ell=math.inf, ep_bar=ep, eb_x=ebx,
            n_pulses=math.inf,
        ))
    return points

