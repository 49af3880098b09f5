"""Three-player phase-encoded quantum secret sharing: simulation and security analysis.

Two players imprint random phases on attenuated laser pulses travelling
around a loop; a dealer's basis phase and a beam splitter turn matched
settings into correlated bits.  This package simulates that loop at the
pulse level, evaluates asymptotic and finite-size secure key rates with
concentration bounds that exploit the basis-choice bias, optimizes the
source settings, and turns measured detector-count tables into key rates.

Each public name is imported from its module on first use (PEP 562), so
the scalar analysis runs without loading numpy, which only the simulator in
:mod:`triqss.protocol` needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> module that defines it
_EXPORTS = {
    "AllAbortError": "errors",
    "CountTableError": "errors",
    "DegenerateGainError": "errors",
    "NumericalDegeneracyError": "errors",
    "ParameterError": "errors",
    "ProtocolAbortError": "errors",
    "QssError": "errors",
    "ZeroCountError": "errors",
    "CountRow": "expdata",
    "ExperimentSummary": "expdata",
    "experiment_skr": "expdata",
    "parse_counts": "expdata",
    "tally_sets": "expdata",
    "tally_table": "expdata",
    "EpsilonBudget": "finitekey",
    "KatoCoefficients": "finitekey",
    "KeyRateReport": "finitekey",
    "PhaseErrorBound": "finitekey",
    "azuma_deviation": "finitekey",
    "expected_to_observed": "finitekey",
    "golden_max": "finitekey",
    "kato_coeffs_numeric": "finitekey",
    "kato_failure_probability": "finitekey",
    "kato_lower_coeffs": "finitekey",
    "kato_upper_coeffs": "finitekey",
    "key_length": "finitekey",
    "observed_to_expected": "finitekey",
    "phase_error_upper_bound": "finitekey",
    "ChannelModel": "optics",
    "SourceParams": "optics",
    "basis_overlap": "optics",
    "binary_entropy": "optics",
    "bit_error_x": "optics",
    "coin_imbalance": "optics",
    "gain": "optics",
    "phase_error_from_y": "optics",
    "transmittance": "optics",
    "Outcome": "protocol",
    "ProtocolRun": "protocol",
    "SetThresholds": "protocol",
    "SiftedTallies": "protocol",
    "run_protocol": "protocol",
    "verify_correlation": "protocol",
    "OptimizationResult": "rates",
    "RatePoint": "rates",
    "asymptotic_sweep": "rates",
    "finite_rate": "rates",
    "optimize_params": "rates",
    "sweep_distance": "rates",
    "Basis": "roundtable",
    "SetCounts": "roundtable",
    "SetTag": "roundtable",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
