"""Deterministic benchmark harness and regression observability.

The measurement substrate every performance PR is judged against:

- :mod:`timer` — warmup + min-of-N ``perf_counter`` repetitions with
  MAD noise estimates and ``tracemalloc`` peak-memory deltas;
- :mod:`suite` — the benchmark definitions: the seven pipeline stages
  and the end-to-end assistant on the four paper programs plus a
  fixed-seed batch of generated QA programs;
- :mod:`profiling` — cProfile hot-function summaries attached to obs
  spans;
- :mod:`baseline` — versioned ``BENCH_<label>.json`` trajectory files
  at the repo root;
- :mod:`regress` — the threshold-based regression detector behind
  ``repro bench gate``;
- :mod:`report` — terminal tables and the Prometheus export.

Driven by the ``repro bench`` CLI subcommand (``run`` / ``compare`` /
``gate`` / ``profile``).
"""

from .baseline import (
    BENCH_SCHEMA,
    BenchInputError,
    BenchValidationError,
    append_run,
    bench_path,
    discover,
    latest_results,
    load_bench_file,
    load_latest_results,
    new_run,
    run_meta,
    validate_bench_file,
    write_bench_file,
)
from .profiling import ProfileResult, format_profile, profile_call
from .regress import (
    RegressionReport,
    Thresholds,
    Verdict,
    compare_results,
    parse_threshold_overrides,
)
from .report import (
    format_compare,
    format_run,
    render_bench_prometheus,
    results_to_metrics,
)
from .suite import (
    BENCH_SIZES,
    GRAPH_STAGE,
    HANDLE_LAYER,
    QA_SEEDS,
    STAGE_NAMES,
    BenchCase,
    build_suite,
    default_bench_config,
    run_suite,
)
from .timer import Measurement, mad, measure, measure_memory, median

__all__ = [
    "BENCH_SCHEMA", "BENCH_SIZES", "BenchCase", "BenchInputError",
    "BenchValidationError", "GRAPH_STAGE", "HANDLE_LAYER",
    "Measurement", "ProfileResult",
    "QA_SEEDS", "RegressionReport", "STAGE_NAMES", "Thresholds", "Verdict",
    "append_run", "bench_path", "build_suite", "compare_results",
    "default_bench_config", "discover", "format_compare",
    "format_profile", "format_run", "latest_results", "load_bench_file",
    "load_latest_results", "mad", "measure", "measure_memory", "median",
    "new_run", "parse_threshold_overrides", "profile_call",
    "render_bench_prometheus", "results_to_metrics", "run_meta",
    "run_suite", "validate_bench_file", "write_bench_file",
]
