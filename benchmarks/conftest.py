"""Shared helpers for the figure/table benchmarks.

Each benchmark regenerates one table or figure of the paper's evaluation:
it prints the same rows/series the paper reports (and writes them under
``results/``) and checks the claims the paper makes about them.  Timing
the pipeline is ``repro bench``'s job, not this directory's.

Run with::

    pytest benchmarks/
"""

from __future__ import annotations

import pathlib
from typing import Dict, Tuple

import pytest

from repro.tool.testcases import TestCase, TestCaseResult, run_test_case

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_CASE_CACHE: Dict[Tuple, TestCaseResult] = {}


def cached_case(program: str, n: int, dtype: str, procs: int,
                maxiter: int = 3, **kwargs) -> TestCaseResult:
    key = (program, n, dtype, procs, maxiter, tuple(sorted(kwargs.items())))
    if key not in _CASE_CACHE:
        case = TestCase(program, n=n, dtype=dtype, nprocs=procs,
                        maxiter=maxiter)
        _CASE_CACHE[key] = run_test_case(case, **kwargs)
    return _CASE_CACHE[key]


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====")
    print(text)


def scheme_row(result: TestCaseResult, name: str):
    return next(s for s in result.schemes if s.name == name)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
