"""Finite-size security analysis: concentration bounds and key length.

The phase error rate of the sifted key cannot be observed directly.  It is
estimated from the Y-basis error counts through a chain of concentration
steps relating observed sums of (possibly correlated) indicator variables to
their conditional expectations:

1. the observed Y-basis error count is lifted to an upper bound on its
   expectation (coefficient-optimized bound, ``kato_upper_coeffs``),
2. the expected Y-basis error rate ``E`` is mapped to an expected phase
   error rate through the basis-coin imbalance ``delta``: the maximum of
   ``optics.phase_error_from_y`` over ``[0, E]``.  That formula peaks at 1
   at ``e* = (1 - 2 delta)^2`` and falls past it, so from ``e*`` on the
   bound is 1,
3. the expected phase error count in the key basis is pushed back to an
   observed count (zero-coefficient bound, ``expected_to_observed``).

Each step consumes failure probability from an :class:`EpsilonBudget`.  The
final key length applies privacy amplification and error-correction costs to
the X-basis detection count.

Each formula has one scalar core, floats in and floats out, unchecked:
the Kato closed form ``_kato_core``, the zero-coefficient deviation
``_zero_coeff_deviation``, and in :mod:`triqss.optics` the three-term sum
``_phase_error_sum`` and the entropy ``_entropy``.  A public function
checks its arguments and wraps a core.  The terms of step 2 that depend on
the imbalance alone, ``optics._coin_terms`` (its check, the peak ``e*``
and the three factors of the sum), are staged once per imbalance: the
chain ``_phase_error_chain`` takes them in place of ``delta`` and calls
the cores; :mod:`triqss.rates` and :mod:`triqss.expdata` run it,
``_phase_error_bound`` builds its record, and :func:`phase_error_upper_bound`
wraps the two.  The key length ``_key_length``
holds the error-correction leak; :func:`key_length` is its one checked
entry.

The coefficient-optimized bound states that for indicators ``xi_i`` with
partial sums ``L_k``, and any ``b >= |a|``,

    Pr[ sum E(xi_i | F_{i-1}) - L_k >= (b + a(2 L_k / k - 1)) sqrt(k) ]
        <= exp(-2 (b^2 - a^2) / (1 + 4a / (3 sqrt(k)))^2),

with a mirrored variant (``a -> -a`` in the denominator) bounding the other
tail.  For a target failure probability the optimal ``(a, b)`` minimizing
the deviation has a closed form.  Both tails share ``_kato_core``, the
lower tail being the upper one at ``k - lam`` with ``a -> -a``; a tail is
named by ``direction`` (``"upper"`` or ``"lower"``), checked in one place.
The closed form is cross-checked against a direct numerical minimization
(``kato_coeffs_numeric``), which runs the line search :func:`golden_max`
over the same core at a given ``a``; the rate optimizer of
:mod:`triqss.rates` uses the same search.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .errors import NumericalDegeneracyError, ParameterError
from .optics import _coin_terms, _entropy, _phase_error_sum, binary_entropy, coin_imbalance

# error-correction efficiency f: the leak is f H(eb_x) per key-set bit; the
# default of every rate function and of the command line's --fe
EC_EFFICIENCY = 1.16
# cap on golden-section steps per line search; the rate optimizer's
# tolerances stop a search after about 25, and the numeric Kato check at
# tolerance 0 stops once its bracket cycles: after 104 steps at k = 1e6 and
# lam = k / 2, on the bracket that the cap would end on
GOLDEN_MAX_ITER = 200


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure probabilities of the individual security steps.

    Attributes
    ----------
    eps_c:
        Correctness failure (hash comparison after error correction).
    eps_pa:
        Privacy amplification failure.
    eps_a:
        Failure of the observed-to-expected concentration step.
    eps_b:
        Failure of the expected-to-observed concentration step.

    Building a budget derives its terms once, as private attributes that are
    not fields (so not in ``__init__``, ``repr`` or ``==``): ``ln(eps_a)`` and
    ``-ln(eps_b)`` for the concentration steps, and the key-length costs
    ``log2(2 / eps_c)`` and ``log2(1 / (4 eps_pa^2))``, written as sums of
    logarithms since ``1 / eps_b`` and ``2 / eps_c`` overflow and
    ``eps_pa ** 2`` underflows for tiny failure probabilities.
    """

    eps_c: float = 1e-10
    eps_pa: float = 1e-10
    eps_a: float = 1e-10
    eps_b: float = 1e-10

    def __post_init__(self):
        # each failure lives in the open interval; values near 1 are useless
        # for security but legitimate for limit checks, so no sum constraint
        for name in ("eps_c", "eps_pa", "eps_a", "eps_b"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ParameterError(f"{name} must be in (0, 1)")
        # the derived terms; frozen, so set past the dataclass's __setattr__
        object.__setattr__(self, "_log_eps_a", math.log(self.eps_a))
        object.__setattr__(self, "_log_inv_eps_b", -math.log(self.eps_b))
        object.__setattr__(self, "_cost_c", 1.0 - math.log2(self.eps_c))
        object.__setattr__(self, "_cost_pa", -2.0 - 2.0 * math.log2(self.eps_pa))

    @property
    def eps_phase(self) -> float:
        """Total failure probability of the phase error estimation chain."""
        return self.eps_a + self.eps_b

    @property
    def eps_secrecy(self) -> float:
        """Secrecy parameter: sqrt of the estimation failure plus eps_pa."""
        return math.sqrt(self.eps_phase) + self.eps_pa


@dataclass(frozen=True)
class KatoCoefficients:
    """Optimized coefficients for one tail at one observation point.

    ``deviation`` is the additive bound ``(b + a(2 lam / k - 1)) sqrt(k)``
    evaluated at the observed sum ``lam``; it is nonnegative for the
    minimizing solution because ``b >= |a|``.
    """

    a: float
    b: float
    deviation: float


def _check_trials(k: float) -> None:
    if not 0 < k < math.inf:
        raise ParameterError("number of trials k must be positive and finite")


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ParameterError("failure probability must be in (0, 1)")


def _sign(direction: str) -> float:
    """+1 for the upper tail, -1 for the lower."""
    if direction == "upper":
        return 1.0
    if direction == "lower":
        return -1.0
    raise ParameterError("direction must be 'upper' or 'lower'")


def _validate_kato_args(lam: float, k: float, eps: float) -> None:
    # below one trial the closed form's terms in k fall under its rounding
    # in t = ln(eps), and b has no real value (k = 1e-20 at eps = 1e-10)
    if not 1 <= k < math.inf:
        raise ParameterError("number of trials k must be finite and at least 1")
    if not 0 <= lam <= k:
        raise ParameterError("observed sum must lie in [0, k]")
    _check_eps(eps)


_SQRT2 = math.sqrt(2.0)


def _kato_core(lam: float, k: float, t: float, sign: float,
               a: float | None = None) -> tuple[float, float, float]:
    """``(a, b, deviation)`` of the tail ``sign`` picks (+1 upper, -1 lower)
    given ``t = ln(eps)``, ``a`` by default the closed-form optimum; unchecked.

    ``b`` solves the failure-probability equality at ``a``.  The deviation
    is nonnegative as ``b >= |a|``: a rounding residue where it cancels is
    clamped at 0.  The lower tail mirrors the upper: complementing every
    indicator swaps the tails and maps ``(lam, a)`` to ``(k - lam, -a)``.
    """
    sk = math.sqrt(k)
    if a is None:
        m = lam if sign > 0.0 else k - lam
        # the upper-tail minimizer at observed sum m
        g = 9.0 * m * (k - m) - 2.0 * k * t
        # as t < 0 and 0 <= m <= k, a product of factors that are not negative
        inner = -(k * k) * t * g
        num = 3.0 * (
            72.0 * sk * m * (k - m) * t
            - 16.0 * k * sk * t * t
            + 9.0 * _SQRT2 * (k - 2.0 * m) * math.sqrt(inner)
        )
        a = sign * (num / (4.0 * (9.0 * k - 8.0 * t) * g))
    # arg = 18 a^2 k + |t| (4 a + 3 sign sqrt(k))^2 is not negative: where the
    # bracket cancels to a rounding residue, 18 a^2 k (about 10 k^2 at k >= 1)
    # outweighs it.  Every a reaches here: an overflow in arg (k above about
    # 1e76 for the closed form) or in a * a * k leaves it inf or nan
    arg = 18.0 * a * a * k - (16.0 * a * a + sign * 24.0 * a * sk + 9.0 * k) * t
    if not arg < math.inf:
        raise NumericalDegeneracyError(
            "failure-probability constraint overflows at this number of trials")
    b = math.sqrt(arg) / (3.0 * math.sqrt(2.0 * k))
    dev = (b + a * (2.0 * lam / k - 1.0)) * sk
    return a, b, (dev if dev > 0.0 else 0.0)


def _kato_coeffs(lam: float, k: float, eps: float, sign: float) -> KatoCoefficients:
    """:func:`_kato_core` after the argument checks, as :class:`KatoCoefficients`."""
    _validate_kato_args(lam, k, eps)
    return KatoCoefficients(*_kato_core(lam, k, math.log(eps), sign))


def kato_upper_coeffs(lam: float, k: float, eps: float) -> KatoCoefficients:
    """Optimal coefficients bounding the expectation from above.

    Parameters
    ----------
    lam:
        Observed sum of the indicator variables (may be fractional when used
        on expected counts).
    k:
        Number of trials.
    eps:
        Allowed failure probability of the bound.
    """
    return _kato_coeffs(lam, k, eps, 1.0)


def kato_lower_coeffs(lam: float, k: float, eps: float) -> KatoCoefficients:
    """Optimal coefficients bounding the expectation from below: the upper
    tail at ``k - lam`` with ``a -> -a`` and the sign-flipped constraint."""
    return _kato_coeffs(lam, k, eps, -1.0)


def kato_failure_probability(a: float, b: float, k: float, direction: str) -> float:
    """Failure probability of the stated bound for given coefficients."""
    sign = _sign(direction)
    # written so that a NaN fails it; a finite b bounds a too
    if not abs(a) <= b < math.inf:
        raise ParameterError("coefficients require a finite b >= |a|")
    _check_trials(k)
    denom = 1.0 + sign * 4.0 * a / (3.0 * math.sqrt(k))
    # Kato's inequality is stated for a positive denominator only
    if not denom > 0.0:
        raise ParameterError("coefficient a makes the bound's denominator nonpositive")
    return math.exp(-2.0 * (b * b - a * a) / (denom * denom))


def _recurs(seen: set, *state: float) -> bool:
    """Whether a line-search state is in ``seen``, by bit pattern, so that
    -0.0 and 0.0 differ and a NaN matches itself; adds it otherwise."""
    bits = struct.pack("6d", *state)
    if bits in seen:
        return True
    seen.add(bits)
    return False


def golden_max(f, lo: float, hi: float, *, tol: float = 1e-5):
    """Golden-section maximization of a unimodal function on [lo, hi].

    Raises :class:`ParameterError` unless ``hi > lo`` and ``hi - lo`` is
    finite.  Returns ``(x, f(x))`` at the midpoint of the final bracket: the
    first one no wider than ``tol``, or the one after ``GOLDEN_MAX_ITER``
    steps.  The steps are deterministic, so once a state (bracket, inner
    points and their values) recurs, bit for bit, the search cycles, and it
    stops there.  As ``hi - lo`` is finite the inner points lie in the
    bracket, so ``lo`` never falls and ``hi`` never rises: every state of
    the cycle, the one the step cap would end on too, has this bracket, and
    every step of the cycle leaves the bracket as it is.  So only the
    states whose step keeps the bracket (the inner point that would become
    an end is that end already) are compared, and a search whose bracket
    shrinks pays one float comparison a step.  At ``tol = 0`` the bracket
    settles, a few ulps wide, into two states, each equal to the one two
    steps before it.
    """
    if not tol >= 0.0:
        raise ParameterError("line search tolerance must be nonnegative")
    if not hi > lo:
        raise ParameterError("need hi > lo for a line search")
    # an infinite width puts the first inner points at -inf and +inf
    if not hi - lo < math.inf:
        raise ParameterError("line search bracket must have a finite width")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    seen = set()   # the states whose step kept the bracket
    for _ in range(GOLDEN_MAX_ITER):
        if hi - lo <= tol:
            break
        if f1 >= f2:
            if x2 == hi and _recurs(seen, lo, hi, x1, f1, x2, f2):
                break
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            if x1 == lo and _recurs(seen, lo, hi, x1, f1, x2, f2):
                break
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def kato_coeffs_numeric(lam: float, k: float, eps: float, direction: str) -> KatoCoefficients:
    """Reference minimizer, independent of the closed forms.

    Solves the same constrained problem on ``a``, with ``b`` eliminated
    through the failure-probability equality, by maximizing the negated
    objective with :func:`golden_max` at tolerance 0.  That search stops
    where its bracket, a few ulps wide, starts to cycle, and ends on the
    same ``a`` as the same search run to its step cap, bit for bit.  The
    objective is convex (square root of an upward parabola plus a linear
    term), so the search bracket ``[-3 sqrt(k), 3 sqrt(k)]`` only needs to
    contain the minimum.  ``b`` and the deviation are those of
    ``_kato_core`` at the found ``a``, which skips the closed-form
    minimizer.  Slow; intended for self-checks.
    """
    _validate_kato_args(lam, k, eps)
    sign = _sign(direction)
    t, sk = math.log(eps), math.sqrt(k)
    c = 2.0 * lam / k - 1.0
    a, _ = golden_max(lambda a: -(_kato_core(lam, k, t, sign, a)[1] + a * c),
                      -3.0 * sk, 3.0 * sk, tol=0.0)
    return KatoCoefficients(*_kato_core(lam, k, t, sign, a))


def observed_to_expected(lam: float, k: float, eps: float, direction: str) -> float:
    """Bound the expectation given an observed sum.

    ``direction='upper'`` returns ``lam + deviation``; ``'lower'`` returns
    ``max(lam - deviation, 0)`` since the expectation of nonnegative
    indicators cannot be negative.
    """
    sign = _sign(direction)
    dev = _kato_coeffs(lam, k, eps, sign).deviation
    return lam + dev if sign > 0.0 else max(lam - dev, 0.0)


def _zero_coeff_deviation(k: float, log_inv_eps: float) -> float:
    """The zero-``a`` deviation ``sqrt(k ln(1/eps) / 2)``, given ``ln(1/eps)``; unchecked."""
    return math.sqrt(0.5 * k * log_inv_eps)


def expected_to_observed(lam_star: float, k: float, eps: float, direction: str) -> float:
    """Bound the observed sum given its expectation.

    The observed sum is unknown here, so the coefficient optimization is
    unavailable; the zero-``a`` bound gives a deviation of
    ``sqrt(k ln(1/eps) / 2)`` independent of the observation.
    """
    _check_trials(k)
    if not lam_star >= 0:
        raise ParameterError("expected sum must be nonnegative")
    _check_eps(eps)
    delta = _zero_coeff_deviation(k, -math.log(eps))
    return lam_star + delta if _sign(direction) > 0.0 else max(lam_star - delta, 0.0)


def azuma_deviation(k: float, eps: float) -> float:
    """Deviation of the classical martingale bound, for comparison.

    Always exactly twice the zero-coefficient deviation used in
    :func:`expected_to_observed`, which is why the optimized bound wins.
    """
    _check_trials(k)
    _check_eps(eps)
    return math.sqrt(-2.0 * k * math.log(eps))


@dataclass(frozen=True)
class PhaseErrorBound:
    """All intermediates of the phase error estimation chain for one Y set;
    ``ep_clamped`` marks an ``ep_expected`` set to 1, past the peak or above 1."""

    n_x: float
    n_y: float
    m_y: float
    m_y_expected: float
    eb_y_expected: float
    delta: float
    ep_expected: float
    m_p_expected: float
    m_p_observed: float
    ep_bar: float
    eps_a: float
    eps_b: float
    eby_clamped: bool = False
    ep_clamped: bool = False
    epbar_clamped: bool = False


def phase_error_upper_bound(
    n_x: float,
    n_y: float,
    m_y: float,
    mu: float,
    gain_value: float,
    budget: EpsilonBudget,
) -> PhaseErrorBound:
    """Upper-bound the key-basis phase error rate from one Y-set tally.

    Parameters
    ----------
    n_x, n_y:
        Detection counts in the key set and in the checked Y set.
    m_y:
        Error count in the checked Y set.
    mu:
        Pulse intensity, which sets the basis overlap.
    gain_value:
        Per-round detection gain used for the coin imbalance; either the
        analytic model value or an observed sifted gain.
    budget:
        Failure probabilities; consumes ``eps_a`` and ``eps_b``.
    """
    delta = coin_imbalance(mu, gain_value)
    return _phase_error_bound(n_x, n_y, m_y, delta, budget,
                              _phase_error_chain(n_x, n_y, m_y, _coin_terms(delta), budget))


def _phase_error_bound(n_x: float, n_y: float, m_y: float, delta: float,
                       budget: EpsilonBudget, chain: tuple) -> PhaseErrorBound:
    """The :class:`PhaseErrorBound` of one Y set, given its ``chain``, the
    return value of :func:`_phase_error_chain` at these arguments."""
    (m_y_expected, eb_y_expected, ep_clamped, ep_expected,
     m_p_expected, m_p_observed, ep_bar) = chain
    return PhaseErrorBound(
        n_x=n_x, n_y=n_y, m_y=m_y,
        m_y_expected=m_y_expected, eb_y_expected=eb_y_expected, delta=delta,
        ep_expected=ep_expected, m_p_expected=m_p_expected,
        m_p_observed=m_p_observed, ep_bar=ep_bar,
        eps_a=budget.eps_a, eps_b=budget.eps_b,
        eby_clamped=m_y_expected > n_y, ep_clamped=ep_clamped,
        epbar_clamped=m_p_observed > n_x,
    )


def _phase_error_chain(
    n_x: float,
    n_y: float,
    m_y: float,
    coin: tuple,
    budget: EpsilonBudget,
) -> tuple:
    """Float core of :func:`phase_error_upper_bound`, given the
    ``optics._coin_terms`` of the coin imbalance, which checked it.

    Returns ``(m_y_expected, eb_y_expected, ep_clamped, ep_expected,
    m_p_expected, m_p_observed, ep_bar)``.  Each step calls the core that
    its public function wraps, with the budget's derived ``ln(eps_a)`` and
    ``-ln(eps_b)``.  The counts are checked once, up front.
    """
    # n_y is step 1's number of trials
    if not (0 < n_x < math.inf and 1 <= n_y < math.inf):
        raise ParameterError("detection counts must be positive and finite, n_y at least 1")
    if not 0 <= m_y <= n_y:
        raise ParameterError("error count must lie in [0, n_y]")

    # step 1: observed Y errors -> expected, as observed_to_expected(upper)
    m_y_expected = m_y + _kato_core(m_y, n_y, budget._log_eps_a, 1.0)[2]
    eb_y_expected = m_y_expected / n_y
    if eb_y_expected > 1.0:
        eb_y_expected = 1.0

    # step 2: expected Y error rate E -> expected phase error rate, the
    # maximum of the three-term sum over [0, E]: 1 from its peak e* on
    past_peak = eb_y_expected >= coin[1]
    ep_raw = 1.0 if past_peak else _phase_error_sum(eb_y_expected, coin)
    ep_clamped = past_peak or ep_raw > 1.0
    ep_expected = 1.0 if ep_clamped else ep_raw

    # step 3: expected phase errors -> observed, as expected_to_observed(upper)
    m_p_expected = ep_expected * n_x
    m_p_observed = m_p_expected + _zero_coeff_deviation(n_x, budget._log_inv_eps_b)
    ep_bar = m_p_observed / n_x
    if ep_bar > 1.0:
        ep_bar = 1.0
    return (m_y_expected, eb_y_expected, ep_clamped, ep_expected,
            m_p_expected, m_p_observed, ep_bar)


def _key_length(
    n_x: float,
    ep_bar: float,
    h_eb_x: float,
    ec_efficiency: float,
    budget: EpsilonBudget,
) -> tuple[int, float, float]:
    """``(ell, raw, lambda_EC)`` given ``h_eb_x = H(eb_x)``; unchecked, and
    :func:`key_length` is its one checked entry.

    ``raw = n_x (1 - H(ep_bar)) - lambda_EC - log2(2 / eps_c) - log2(1 / (4 eps_pa^2))``
    with the leak ``lambda_EC = n_x f H(eb_x)``, 0 where ``H(eb_x) = 0``
    however large ``n_x f``.  A raw length that is not positive gives
    ``ell = 0``: an overflowing leak leaves it ``-inf``.  ``ep_bar`` is a
    phase error rate, at least 0; one at or above 1/2 is total leakage, as
    H's dip above 1/2 is no recovered secrecy.
    """
    h = _entropy(0.5 if ep_bar > 0.5 else ep_bar)
    lam_ec = n_x * ec_efficiency * h_eb_x
    if not lam_ec < math.inf:
        # n_x f overflowed; f H(eb_x) <= f does not, so the leak overflows
        # only where its value does, and it is 0 where H(eb_x) = 0
        lam_ec = n_x * (ec_efficiency * h_eb_x)
    raw = n_x * (1.0 - h) - lam_ec - budget._cost_c - budget._cost_pa
    return (math.floor(raw) if raw > 0.0 else 0), raw, lam_ec


def _check_ec_efficiency(ec_efficiency: float) -> None:
    if not 1.0 <= ec_efficiency < math.inf:
        raise ParameterError("error-correction efficiency must be finite and at least 1")


def key_length(
    n_x: float,
    ep_bar: float,
    eb_x: float,
    ec_efficiency: float,
    budget: EpsilonBudget,
) -> int:
    """Secure key length in bits: the raw length of :func:`_key_length`
    floored, 0 where it is not positive."""
    if n_x <= 0:
        raise ParameterError("key-set detection count must be positive")
    _check_ec_efficiency(ec_efficiency)
    h_eb_x = binary_entropy(eb_x)
    if not ep_bar >= 0.0:
        raise ParameterError("phase error rate ep_bar must be nonnegative")
    return _key_length(n_x, ep_bar, h_eb_x, ec_efficiency, budget)[0]


@dataclass(frozen=True)
class KeyRateReport:
    """Result of one finite-size key rate evaluation; ``phase`` is the chain of
    the rated Y set, and its ``ep_bar`` the rated phase error bound."""

    n_pulses: float
    lambda_ec: float
    ell: int
    rate_per_pulse: float
    rate_per_second: float
    phase: PhaseErrorBound
    budget: EpsilonBudget
