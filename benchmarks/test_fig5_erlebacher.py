"""Figure 5 — Erlebacher, measured and estimated execution times.

Paper: 64^3, double precision.  Distributing the first dimension
(fine-grain pipeline) is never profitable; the second dimension
(coarse-grain pipeline) and the dynamic layout that remaps the read-only
array are the contenders; the third dimension sequentializes one of the
three symmetric computations and its estimate overshoots the measurement.
"""

import pytest

from repro.tool.schemes import TOOL

from .conftest import cached_case, emit, scheme_row

N, DTYPE = 64, "double"
PROCS = (2, 4, 8, 16, 32)
SCHEMES = ("dist1", "dist2", "dist3")


@pytest.fixture(scope="module")
def sweep():
    return {p: cached_case("erlebacher", N, DTYPE, p) for p in PROCS}


def test_fig5_series(sweep):
    lines = [
        f"Figure 5: Erlebacher {N}^3 {DTYPE} — estimated vs measured (s)"
    ]
    header = f"{'procs':>5}"
    for name in SCHEMES + ("dynamic",):
        header += f" {name + '/est':>12} {name + '/meas':>12}"
    lines.append(header)
    for p in PROCS:
        result = sweep[p]
        row = f"{p:>5}"
        for name in SCHEMES:
            s = scheme_row(result, name)
            row += f" {s.estimated_us/1e6:12.4f} {s.measured_us/1e6:12.4f}"
        tool = scheme_row(result, TOOL)
        row += f" {tool.estimated_us/1e6:12.4f} {tool.measured_us/1e6:12.4f}"
        lines.append(row)
    emit("fig5_erlebacher.txt", "\n".join(lines))


def test_fig5_dist1_never_profitable(sweep):
    for p in PROCS:
        result = sweep[p]
        dist1 = scheme_row(result, "dist1").measured_us
        best_other = min(
            scheme_row(result, n).measured_us for n in ("dist2", "dist3")
        )
        assert dist1 > best_other, f"fine-grain pipeline won at P={p}"


def test_fig5_dynamic_close_to_dist2(sweep):
    """The dynamic layout and the dim-2 static layout are very close
    (the paper's tool sometimes misranked them for this reason)."""
    for p in PROCS[2:]:
        result = sweep[p]
        dist2 = scheme_row(result, "dist2").measured_us
        dynamic = scheme_row(result, TOOL).measured_us
        assert dynamic <= dist2
        assert dynamic > 0.4 * dist2


def test_fig5_dist3_overestimated(sweep):
    """The paper overestimates the sequentialized dim-3 layout by up to
    60%; our estimator prices phases in isolation and misses the overlap
    of adjacent sequential sweeps, reproducing an overestimate at small
    processor counts."""
    overs = []
    for p in PROCS:
        s = scheme_row(sweep[p], "dist3")
        overs.append(s.estimated_us / s.measured_us)
    assert max(overs) > 1.0
    assert max(overs) < 2.0  # bounded, like the paper's <= 60%


def test_fig5_tool_optimal(sweep):
    for p in PROCS:
        assert sweep[p].tool_optimal


def test_fig5_assistant_runtime():
    from repro.programs.registry import PROGRAMS
    from repro.tool.assistant import AssistantConfig, run_assistant

    source = PROGRAMS["erlebacher"].source(n=N, dtype=DTYPE)
    run_assistant(source, AssistantConfig(nprocs=16))
