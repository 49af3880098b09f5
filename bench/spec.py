"""Names shared by the benchmark's parent, its workers and its smoke test.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; ``smoke_check.py`` asserts that the two agree.
"""

WORKLOADS = ("mc_threshold_30db", "mc_trace_0km", "sweep_finite_1e10", "analyze_cli")

# end-to-end metrics, measured with tracing off: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)

# public functions timed at their boundary in the traced run, by module
TRACED = {
    "protocol": ("run_protocol",),
    "rates": ("sweep_distance", "optimize_params", "finite_rate", "golden_max"),
    "finitekey": ("phase_error_upper_bound", "key_length",
                  "kato_coeffs_numeric", "kato_upper_coeffs"),
    "optics": ("gain", "bit_error_x", "coin_imbalance", "binary_entropy"),
    "expdata": ("parse_counts", "tally_sets", "experiment_skr"),
    "cli": ("main",),
    "report": ("render_kv",),
}

# per-layer metrics from the traced run, each a mean per traced op: (name, unit)
PER_LAYER = tuple(
    (f"{module}.{fn}.{stat}", unit)
    for module, fns in TRACED.items()
    for fn in fns
    for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
) + (
    ("protocol.rounds", "count"),
    ("protocol.sifted", "count"),
    ("protocol.sifted_per_round", "ratio"),
    ("protocol.ns_per_round", "ns"),
    ("protocol.trace_write_s", "s"),
    ("protocol.trace_rows", "count"),
    ("protocol.trace_bytes", "B"),
    ("rates.evals_per_point", "count"),
    ("rates.zero_rate_eval_frac", "ratio"),
    ("expdata.rows_parsed", "count"),
    ("cli.output_bytes", "B"),
    ("trace_overhead_frac", "ratio"),
)
