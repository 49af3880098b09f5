"""Pulse-level optical model of the two-arm interference measurement.

Both players send phase-encoded weak coherent pulses of intensity ``mu``
through symmetric fiber arms to the dealer, who interferes them on a beam
splitter monitored by two single-photon detectors.  The functions here give
the per-round detection gain, the X-basis bit error rate, and the quantities
entering the phase-error estimate: the overlap between the two basis state
families and the resulting imbalance of the virtual basis-choice coin.
The terms of the phase error formula that depend on the imbalance alone,
``_coin_terms``, are staged once per imbalance: the finite-key chain and
the rate evaluator build them once and ``_phase_error_sum`` reads them.

``_port_clicks`` is the one click model, with dark counts as independent
per-detector events: the gain here reads it with all the light on one
detector, and the simulator at every cell's port split.  Each caller folds
misalignment in as a probability ``e_d`` that a lone click lands in the
wrong detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateGainError, ParameterError


@dataclass(frozen=True)
class ChannelModel:
    """Symmetric channel and detector parameters.

    Attributes
    ----------
    alpha_db_per_km:
        Fiber attenuation in dB per km.
    length_km:
        Total fiber length between the two players; each player sits half
        this distance from the dealer.
    det_efficiency:
        Detector efficiency ``eta_d`` in (0, 1].
    dark_count:
        Dark count probability per detector per gate.
    misalignment:
        Probability ``e_d`` that a single click is registered by the wrong
        detector.
    """

    alpha_db_per_km: float = 0.167
    length_km: float = 0.0
    det_efficiency: float = 0.4
    dark_count: float = 2e-8
    misalignment: float = 0.015

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0 <= self.alpha_db_per_km < math.inf:
            raise ParameterError("attenuation must be finite and nonnegative")
        if not 0 <= self.length_km < math.inf:
            raise ParameterError("fiber length must be finite and nonnegative")
        if not 0 < self.det_efficiency <= 1:
            raise ParameterError("detector efficiency must be in (0, 1]")
        if not 0 <= self.dark_count < 1:
            raise ParameterError("dark count probability must be in [0, 1)")
        if not 0 <= self.misalignment <= 0.5:
            raise ParameterError("misalignment must be in [0, 0.5]")


@dataclass(frozen=True)
class SourceParams:
    """Per-player source settings: pulse intensity and X-basis probability."""

    intensity: float
    px: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0 <= self.intensity < math.inf:
            raise ParameterError("pulse intensity must be finite and nonnegative")
        if not 0 < self.px < 1:
            raise ParameterError("X-basis probability must be in (0, 1)")


def transmittance(channel: ChannelModel) -> float:
    """Single-arm transmittance including detector efficiency.

    Each arm spans half the player-to-player distance, so the arm loss in dB
    is ``alpha * L / 2`` and the transmittance seen by either pulse is
    ``eta_d * 10**(-alpha * L / 20)``.
    """
    return channel.det_efficiency * 10.0 ** (-channel.alpha_db_per_km * channel.length_km / 20.0)


def _port_clicks(x1: float, x2: float, dark: float) -> tuple[float, float, float, float]:
    """``(lone1, lone2, none, double)`` when detectors 1 and 2 receive ``x1``
    and ``x2`` photons on average, each also firing on a dark count; unchecked."""
    quiet1, quiet2 = math.exp(-x1), math.exp(-x2)
    # -expm1 keeps 1 - exp(-x) accurate when x is far below 1e-8
    click1, click2 = -math.expm1(-x1) + dark * quiet1, -math.expm1(-x2) + dark * quiet2
    quiet1, quiet2 = (1.0 - dark) * quiet1, (1.0 - dark) * quiet2
    return click1 * quiet2, click2 * quiet1, quiet1 * quiet2, click1 * click2


def _lone_clicks(mu: float, eta: float, dark: float) -> tuple[float, float]:
    """Lone clicks on the lit and on the unlit detector when both pulses'
    light, ``2 mu eta``, reaches one detector."""
    # written so that a NaN fails it
    if not (mu >= 0 and eta >= 0 and 0 <= dark < 1):
        raise ParameterError("gain arguments out of range")
    return _port_clicks(2.0 * mu * eta, 0.0, dark)[:2]


def gain(mu: float, eta: float, dark: float) -> float:
    """Probability that exactly one detector clicks in a round.

    With ideal interference all signal photons reach one output port, whose
    total mean photon number is ``2 * mu * eta``.  Either detector can also
    fire from a dark count.

    Parameters
    ----------
    mu:
        Pulse intensity per player.
    eta:
        Single-arm transmittance, from :func:`transmittance`.
    dark:
        Dark count probability per detector per gate.
    """
    lit, unlit = _lone_clicks(mu, eta, dark)
    return lit + unlit


def bit_error_x(mu: float, eta: float, dark: float, misalignment: float) -> float:
    """X-basis bit error rate conditioned on a single click.

    Combines misaligned signal clicks with dark counts landing in the wrong
    detector.  In the dark-count-free limit this tends to the misalignment
    probability itself.
    """
    if not 0 <= misalignment <= 0.5:
        raise ParameterError("misalignment must be in [0, 0.5]")
    return _gain_and_bit_error(mu, eta, dark, misalignment)[1]


def _gain_and_bit_error(mu: float, eta: float, dark: float,
                        misalignment: float) -> tuple[float, float]:
    """``(gain, bit_error_x)`` from one evaluation of the lone clicks;
    ``misalignment`` unchecked.  A misaligned lit click, or an aligned unlit
    one, lands in the wrong detector."""
    lit, unlit = _lone_clicks(mu, eta, dark)
    q = lit + unlit
    if q <= 0.0:
        raise DegenerateGainError("zero detection gain: bit error rate undefined")
    return q, (misalignment * lit + (1.0 - misalignment) * unlit) / q


def basis_overlap(mu: float) -> float:
    """Inner product of the joint X-basis and Y-basis state families.

    For coherent encoding at intensity ``mu`` the overlap has the closed
    form ``exp(-mu) * (cos(mu) + sin(mu))``, which equals
    ``1 - mu**2 + (2/3) mu**3 - ...`` for small ``mu``.
    """
    # cos and sin of an infinite intensity raise a bare ValueError
    if not 0 <= mu < math.inf:
        raise ParameterError("pulse intensity must be finite and nonnegative")
    return math.exp(-mu) * (math.cos(mu) + math.sin(mu))


def coin_imbalance(mu: float, gain_value: float) -> float:
    """Imbalance of the virtual basis-choice coin, conditioned on a click.

    The imbalance ``delta = (1 - overlap) / (2 * gain)`` quantifies how far
    the detected rounds are from a fair basis coin.  The security argument
    requires ``delta <= 1/2``.  A gain of 0 or less raises
    :class:`DegenerateGainError`, any other gain outside (0, 1], NaN
    included, :class:`ParameterError`: no pulse clicks more than once.
    """
    if gain_value <= 0.0:
        raise DegenerateGainError("zero detection gain: coin imbalance undefined")
    if not gain_value <= 1.0:
        raise ParameterError("detection gain must be in (0, 1]")
    delta = (1.0 - basis_overlap(mu)) / (2.0 * gain_value)
    if delta > 0.5:
        raise ParameterError(
            f"coin imbalance {delta:.6g} exceeds 1/2; intensity too high for this gain"
        )
    return delta


def _coin_terms(delta: float) -> tuple[float, float, float, float, float]:
    """``(delta, peak, 4 delta (1 - delta), 4 (1 - 2 delta), delta (1 - delta))``:
    the terms of :func:`phase_error_from_y` that depend on the imbalance
    alone, ``peak = (1 - 2 delta)^2`` being where the sum reaches 1.
    Raises :class:`ParameterError` unless ``0 <= delta <= 1/2``."""
    if not 0 <= delta <= 0.5:
        raise ParameterError("coin imbalance must be in [0, 1/2]")
    return (delta, (1.0 - 2.0 * delta) ** 2, 4.0 * delta * (1.0 - delta),
            4.0 * (1.0 - 2.0 * delta), delta * (1.0 - delta))


def _phase_error_sum(eb_y: float, terms: tuple) -> float:
    """The unclamped sum of the three terms of :func:`phase_error_from_y`,
    given the :func:`_coin_terms` of its imbalance; unchecked."""
    _, _, var4, bias4, var = terms
    return math.fsum((
        eb_y,
        var4 * (1.0 - 2.0 * eb_y),
        bias4 * math.sqrt(var * eb_y * (1.0 - eb_y)),
    ))


def phase_error_from_y(eb_y: float, delta: float) -> float:
    """X-basis phase error rate bound from the Y-basis error rate.

    The sum of three terms: ``eb_y``, ``4 delta (1 - delta)(1 - 2 eb_y)`` and
    ``4 (1 - 2 delta) sqrt(delta (1 - delta) eb_y (1 - eb_y))``.  It equals
    ``eb_y`` exactly when the coin is balanced (``delta == 0``) and grows
    with the imbalance.  The sum can exceed one for large inputs; the
    returned value is clamped to one since it bounds a probability.  In
    ``eb_y`` the sum rises to 1 at ``(1 - 2 delta)^2`` and falls past it;
    the value here is pointwise, and the finite-key chain bounds step 2 by
    its maximum over ``[0, E]``.
    """
    if not 0 <= eb_y <= 1:
        raise ParameterError("Y-basis error rate must be in [0, 1]")
    return min(1.0, _phase_error_sum(eb_y, _coin_terms(delta)))


def _entropy(x: float) -> float:
    """:func:`binary_entropy` of ``x`` in [0, 1]; unchecked."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy ``H(x)`` in bits, with ``H(0) = H(1) = 0``."""
    if not 0 <= x <= 1:
        raise ParameterError("entropy argument must be in [0, 1]")
    return _entropy(x)
