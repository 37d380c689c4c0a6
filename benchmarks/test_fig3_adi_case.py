"""Figure 3 — Adi example test case.

Paper: 512 x 512, double precision, 16 processors; three promising data
layouts (static row-wise, static column-wise, remapped).  The prototype
picked the static row-wise layout and ranked the alternatives correctly.
"""

import pytest

from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.schemes import TOOL

from .conftest import cached_case, emit, scheme_row

N, DTYPE, PROCS = 512, "double", 16


@pytest.fixture(scope="module")
def result():
    return cached_case("adi", N, DTYPE, PROCS)


def test_fig3_table(result):
    lines = [
        f"Figure 3: Adi test case — {N}x{N}, {DTYPE}, {PROCS} processors",
        f"{'layout':<12} {'estimated':>12} {'measured':>12}",
    ]
    for name in ("row", "column", "remapped"):
        s = scheme_row(result, name)
        lines.append(
            f"{name:<12} {s.estimated_us/1e6:10.4f} s "
            f"{s.measured_us/1e6:10.4f} s"
        )
    tool = scheme_row(result, TOOL)
    picked = "row" if tool.selection == scheme_row(result, "row").selection \
        else "dynamic"
    lines.append(f"tool picked: {picked}")
    emit("fig3_adi_case.txt", "\n".join(lines))

    # Paper shape: the tool picks the static row-wise layout...
    assert tool.selection == scheme_row(result, "row").selection
    # ...and the alternatives rank row < remapped < column.
    row = scheme_row(result, "row").measured_us
    remapped = scheme_row(result, "remapped").measured_us
    column = scheme_row(result, "column").measured_us
    assert row < remapped < column
    # The estimated ranking matches the measured ranking.
    assert result.ranking_correct()


def test_fig3_tool_is_measured_best(result):
    assert result.tool_optimal
    assert result.loss_percent == 0.0


def test_fig3_assistant_runtime():
    """Run the full four-step assistant on the Figure 3 configuration."""
    from repro.programs.registry import PROGRAMS

    source = PROGRAMS["adi"].source(n=N, dtype=DTYPE, maxiter=3)
    run_assistant(source, AssistantConfig(nprocs=PROCS))
