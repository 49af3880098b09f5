"""The optimizer's memoization is exact.

``optimize_params`` keeps two kinds of state for one call: the per-distance
term tables of its one evaluator, which scores every request not replayed
and then the best point, and the line searches already run, replayed from
the trace when repeated.  Neither may change what the optimizer returns.
The reference here runs the same restarts and coordinate descent with plain
``golden_max`` over ``finite_rate`` scores, each point evaluated afresh, and
must agree with it request for request, error for error.
"""

import pytest

from triqss import (
    AllAbortError,
    ChannelModel,
    EpsilonBudget,
    NumericalDegeneracyError,
    OptimizationResult,
    finite_rate,
    optimize_params,
)
from triqss import rates
from triqss.cli import main
from triqss.finitekey import EC_EFFICIENCY


def reference_optimize(length_km, n_pulses, channel, ec_efficiency=EC_EFFICIENCY,
                       budget=EpsilonBudget(), *, extra_starts=()):
    """``optimize_params`` with no evaluator, no memo and no replay."""
    trace = []
    overflows = []

    def rate_at(mu, px):
        try:
            r = finite_rate(length_km, mu, px, n_pulses, channel,
                            ec_efficiency, budget).rate_per_pulse
        except rates._SCORED_ZERO as exc:
            if isinstance(exc, NumericalDegeneracyError):
                overflows.append(exc)
            r = 0.0
        trace.append((mu, px, r))
        return r

    for mu0, px0 in (*rates._RESTARTS, *extra_starts):
        mu, px = float(mu0), float(px0)
        rate = rate_at(mu, px)
        for _ in range(rates.MAX_SWEEPS):
            sweep_start = rate
            lmu, r_mu = rates.golden_max(lambda l: rate_at(10.0 ** l, px),
                                         *rates._LOG_MU_BOUNDS, tol=1e-4)
            if r_mu > rate:
                mu, rate = 10.0 ** lmu, r_mu
            new_px, r_px = rates.golden_max(lambda p: rate_at(mu, p), *rates.PX_BOUNDS, tol=1e-4)
            if r_px > rate:
                px, rate = new_px, r_px
            if rate <= sweep_start * (1.0 + 1e-9):
                break

    best_mu, best_px, best_rate = max(trace, key=lambda rec: rec[2])
    if best_rate <= 0.0:
        message = f"no positive key rate found at L={length_km} km for n_pulses={n_pulses:g}"
        if overflows:
            raise NumericalDegeneracyError(f"{message}: {overflows[0]}")
        raise AllAbortError(message)
    best = finite_rate(length_km, best_mu, best_px, n_pulses, channel, ec_efficiency, budget)
    return OptimizationResult(best=best, trace=trace, n_evals=len(trace))


def outcome(optimize, *args, **kwargs):
    """The result as reprs, or the error's type and text."""
    try:
        result = optimize(*args, **kwargs)
    except (AllAbortError, NumericalDegeneracyError) as exc:
        return type(exc), str(exc)
    return repr(result.best), repr(result.trace), result.n_evals


def _count_line_searches(monkeypatch):
    """Count the calls of ``rates.golden_max`` from now on, in ``calls[0]``."""
    calls = [0]
    golden_max = rates.golden_max

    def counted(*args, **kwargs):
        calls[0] += 1
        return golden_max(*args, **kwargs)

    monkeypatch.setattr(rates, "golden_max", counted)
    return calls


# no key at 265 km for any of these N, nor at 200 and 215 km for 1e8
@pytest.mark.parametrize("n_pulses", [1e8, 1e10, 1e12])
@pytest.mark.parametrize("length_km", [0.0, 100.0, 200.0, 215.0, 265.0])
def test_matches_the_reference(length_km, n_pulses):
    channel = ChannelModel()
    expected = outcome(reference_optimize, length_km, n_pulses, channel)
    assert outcome(optimize_params, length_km, n_pulses, channel) == expected


# 1e80 at 0 km overflows at some points beside a key; from about 1e84 the
# trial counts pass about 1e77 and every point that does not abort overflows
@pytest.mark.parametrize("length_km,n_pulses,error", [
    (0.0, 1e80, None),
    (265.0, 1e84, NumericalDegeneracyError),
    (0.0, 1e86, NumericalDegeneracyError),
])
def test_overflows_match_the_reference(length_km, n_pulses, error):
    channel = ChannelModel()
    got = outcome(optimize_params, length_km, n_pulses, channel)
    assert got == outcome(reference_optimize, length_km, n_pulses, channel)
    assert (got[0] is error) if error else isinstance(got[0], str)


# a warm start as sweep_distance gives it; starts at restart points; starts
# at -0.0 and 0.0, which compare equal but which the trace records apart; and
# a start whose mu equals a px, so that a mu search and a px search hold the
# same fixed value
@pytest.mark.parametrize("extra_starts", [
    ((2e-4, 0.7),),
    ((1e-3, 0.9), (3e-4, 0.8)),
    ((1e-3, 0.0), (1e-3, -0.0)),
    ((0.0, 0.9), (-0.0, 0.9), (0.0, 0.9)),
    ((0.99, 0.99),),
], ids=["warm", "restarts", "px-signed-zero", "mu-signed-zero", "mu-equals-px"])
@pytest.mark.parametrize("length_km", [100.0, 215.0])
def test_extra_starts_match_the_reference(length_km, extra_starts):
    channel = ChannelModel()
    expected = outcome(reference_optimize, length_km, 1e10, channel, extra_starts=extra_starts)
    assert outcome(optimize_params, length_km, 1e10, channel,
                   extra_starts=extra_starts) == expected


def test_the_benchmark_sweep_replays_370_of_1028_line_searches(monkeypatch, capsys):
    argv = ["sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "260", "--step", "5"]
    calls = _count_line_searches(monkeypatch)
    assert main(argv) == 0
    memoized = capsys.readouterr().out
    ran = calls[0]
    # the same sweep over the reference optimizer runs every line search
    monkeypatch.setattr(rates, "optimize_params", reference_optimize)
    assert main(argv) == 0
    plain = capsys.readouterr().out
    requested = calls[0] - ran
    assert memoized == plain
    assert (ran, requested - ran) == (658, 370)
