"""Performance estimation: training sets, compiler/execution models.

The :mod:`repro.perf.bench` subpackage is the repo's own benchmark
harness (``repro bench``): deterministic stage/end-to-end timings,
``BENCH_<label>.json`` baselines, and the regression gate.
"""
