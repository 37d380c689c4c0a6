"""Differential-oracle fuzzing subsystem (QA).

Random program generation over the frontend AST, brute-force oracles for
the two NP-complete cores (inter-dimensional alignment and data-layout
selection) differentially checked against the 0-1 ILP implementations,
metamorphic invariants over the whole pipeline, greedy failure
minimization, and a committed repro-case corpus.

Entry points: :func:`repro.qa.runner.run_fuzz` (programmatic) and the
``fuzz`` CLI subcommand (``autolayout fuzz`` / ``repro fuzz``).
"""

from .corpus import CorpusCase, DEFAULT_CORPUS_DIR, case_meta, load_corpus, \
    write_case
from .generator import GeneratedCase, GeneratorConfig, generate_program, \
    normalize_program
from .metamorphic import (
    METAMORPHIC_CHECKS,
    add_unused_array,
    check_array_renaming,
    check_loop_var_relabeling,
    check_trip_count_scaling,
    check_unused_array,
    rename_identifiers,
    scale_size_parameter,
)
from .minimize import minimize_program, prune_declarations
from .oracles import (
    Divergence,
    alignment_assignment_count,
    best_alignment,
    best_selection,
    check_alignment,
    check_resolution,
    check_selection,
    enumerate_alignments,
    optimal_cuts,
    satisfied_weight,
    selection_combination_count,
)
from .runner import ALL_CHECKS, FuzzFailure, FuzzReport, run_fuzz

__all__ = [
    "ALL_CHECKS",
    "CorpusCase",
    "DEFAULT_CORPUS_DIR",
    "Divergence",
    "FuzzFailure",
    "FuzzReport",
    "GeneratedCase",
    "GeneratorConfig",
    "METAMORPHIC_CHECKS",
    "add_unused_array",
    "alignment_assignment_count",
    "best_alignment",
    "best_selection",
    "case_meta",
    "check_alignment",
    "check_array_renaming",
    "check_loop_var_relabeling",
    "check_resolution",
    "check_selection",
    "check_trip_count_scaling",
    "check_unused_array",
    "enumerate_alignments",
    "generate_program",
    "load_corpus",
    "minimize_program",
    "normalize_program",
    "optimal_cuts",
    "prune_declarations",
    "rename_identifiers",
    "run_fuzz",
    "satisfied_weight",
    "scale_size_parameter",
    "selection_combination_count",
    "write_case",
]
