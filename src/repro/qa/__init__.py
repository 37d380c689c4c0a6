"""Differential-oracle fuzzing subsystem (QA).

Random program generation over the frontend AST, brute-force oracles for
the two NP-complete cores (inter-dimensional alignment and data-layout
selection) differentially checked against the 0-1 ILP implementations,
metamorphic invariants over the whole pipeline, greedy failure
minimization, and a committed repro-case corpus.

Entry points: :func:`repro.qa.runner.run_fuzz` (programmatic) and the
``fuzz`` CLI subcommand (``autolayout fuzz`` / ``repro fuzz``).
"""
