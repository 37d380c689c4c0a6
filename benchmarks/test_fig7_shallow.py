"""Figure 7 — Shallow, measured and estimated execution times.

Paper: 384 x 384, real.  The stencils parallelize in either dimension,
but a row distribution requires buffered (strided) messages, so the
column distribution performs slightly better; the tool always picks
column.  Static estimates slightly overestimate the measured timings but
predict the relative performance with high accuracy.
"""

import pytest

from repro.tool.schemes import TOOL

from .conftest import cached_case, emit, scheme_row

N, DTYPE = 384, "real"
PROCS = (2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def sweep():
    return {p: cached_case("shallow", N, DTYPE, p) for p in PROCS}


def test_fig7_series(sweep):
    lines = [
        f"Figure 7: Shallow {N}x{N} {DTYPE} — estimated vs measured (s)",
        f"{'procs':>5} {'row/est':>10} {'row/meas':>10} "
        f"{'col/est':>10} {'col/meas':>10}",
    ]
    for p in PROCS:
        result = sweep[p]
        row = scheme_row(result, "row")
        col = scheme_row(result, "column")
        lines.append(
            f"{p:>5} {row.estimated_us/1e6:>10.4f} "
            f"{row.measured_us/1e6:>10.4f} {col.estimated_us/1e6:>10.4f} "
            f"{col.measured_us/1e6:>10.4f}"
        )
    emit("fig7_shallow.txt", "\n".join(lines))


def test_fig7_column_slightly_better(sweep):
    for p in PROCS:
        result = sweep[p]
        row = scheme_row(result, "row").measured_us
        col = scheme_row(result, "column").measured_us
        assert col < row, f"row won at P={p}"
        assert row < col * 1.5, f"not 'slightly' at P={p}"


def test_fig7_tool_picks_column(sweep):
    for p in PROCS:
        result = sweep[p]
        tool = scheme_row(result, TOOL)
        assert tool.selection == scheme_row(result, "column").selection


def test_fig7_relative_performance_predicted(sweep):
    """The estimated row/column ratio matches the measured ratio."""
    for p in PROCS:
        result = sweep[p]
        row = scheme_row(result, "row")
        col = scheme_row(result, "column")
        est_ratio = row.estimated_us / col.estimated_us
        meas_ratio = row.measured_us / col.measured_us
        assert est_ratio == pytest.approx(meas_ratio, rel=0.15)


def test_fig7_assistant_runtime():
    from repro.programs.registry import PROGRAMS
    from repro.tool.assistant import AssistantConfig, run_assistant

    source = PROGRAMS["shallow"].source(n=N, dtype=DTYPE, maxiter=3)
    run_assistant(source, AssistantConfig(nprocs=16))
