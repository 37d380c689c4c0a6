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
