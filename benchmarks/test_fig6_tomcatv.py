"""Figure 6 — Tomcatv, measured and estimated execution times, and the
effect of guessed vs actual branch probabilities.

Paper: 128 x 128, double precision.  Tomcatv has control flow inside its
main iterative loop; the prototype guesses 50% branch probability, which
underestimates the actual timings — with the actual probabilities the
prediction is more precise.  Column-wise distribution is the best static
choice essentially always.
"""

import pytest

from repro.programs.registry import PROGRAMS
from repro.programs.tomcatv import smoothing_if_line
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.schemes import enumerate_schemes

from .conftest import cached_case, emit, scheme_row

N, DTYPE = 128, "double"
PROCS = (2, 4, 8, 16, 32)
ACTUAL_PROB = 1.0  # the residual stays above tolerance: always smoothed


@pytest.fixture(scope="module")
def sweep():
    return {
        p: cached_case(
            "tomcatv", N, DTYPE, p,
            actual_branch_probability=ACTUAL_PROB,
        )
        for p in PROCS
    }


@pytest.fixture(scope="module")
def actual_prob_estimates():
    """Assistant re-run with the *actual* branch probabilities supplied
    (the bottom-vs-top comparison of Figure 6)."""
    source = PROGRAMS["tomcatv"].source(n=N, dtype=DTYPE, maxiter=3)
    if_line = smoothing_if_line(source)
    out = {}
    for p in PROCS:
        result = run_assistant(
            source,
            AssistantConfig(
                nprocs=p, branch_prob_overrides={if_line: ACTUAL_PROB}
            ),
        )
        out[p] = enumerate_schemes(result)
    return out


def test_fig6_series(sweep, actual_prob_estimates):
    lines = [
        f"Figure 6: Tomcatv {N}x{N} {DTYPE} — estimated vs measured (s)",
        f"(estimates with guessed 50% and actual "
        f"{ACTUAL_PROB:.0%} branch probability)",
        f"{'procs':>5} {'row/meas':>10} {'col/meas':>10} "
        f"{'col/est50%':>11} {'col/estact':>11}",
    ]
    for p in PROCS:
        result = sweep[p]
        col = scheme_row(result, "column")
        actual_col = next(
            s for s in actual_prob_estimates[p] if s.name == "column"
        )
        lines.append(
            f"{p:>5} {scheme_row(result, 'row').measured_us/1e6:>10.4f} "
            f"{col.measured_us/1e6:>10.4f} {col.estimated_us/1e6:>11.4f} "
            f"{actual_col.estimated_us/1e6:>11.4f}"
        )
    emit("fig6_tomcatv.txt", "\n".join(lines))


def test_fig6_column_beats_row(sweep):
    for p in PROCS:
        result = sweep[p]
        assert scheme_row(result, "column").measured_us < \
            scheme_row(result, "row").measured_us, f"row won at P={p}"


def test_fig6_guessed_probability_underestimates(sweep,
                                                 actual_prob_estimates):
    """With the 50% guess the estimates undershoot the measured times;
    the actual-probability estimates come closer (paper's bottom vs top
    graphs)."""
    for p in PROCS:
        measured = scheme_row(sweep[p], "column").measured_us
        guessed = scheme_row(sweep[p], "column").estimated_us
        actual = next(
            s for s in actual_prob_estimates[p] if s.name == "column"
        ).estimated_us
        assert guessed < measured
        assert abs(actual - measured) < abs(guessed - measured)


def test_fig6_tool_never_loses(sweep):
    for p in PROCS:
        assert sweep[p].tool_optimal


def test_fig6_alignment_conflict_machinery_used():
    """Tomcatv is the program whose analysis exercises the alignment 0-1
    formulation (two conflicted imports)."""
    source = PROGRAMS["tomcatv"].source(n=N, dtype=DTYPE, maxiter=3)
    result = run_assistant(source, AssistantConfig(nprocs=16))
    assert len(result.alignment_spaces.resolutions) == 2
