"""Figure 4 — Adi, measured and estimated execution times.

Paper: problem size 256 x 256, double precision, across processor counts;
column always worst (two sequentialized phases), row best in most cases,
remapped best in the rest.
"""

import pytest


from .conftest import cached_case, emit, scheme_row

N, DTYPE = 256, "double"
PROCS = (2, 4, 8, 16, 32)
SCHEMES = ("row", "column", "remapped")


@pytest.fixture(scope="module")
def sweep():
    return {p: cached_case("adi", N, DTYPE, p) for p in PROCS}


def test_fig4_series(sweep):
    lines = [f"Figure 4: Adi {N}x{N} {DTYPE} — estimated vs measured (s)"]
    header = f"{'procs':>5}"
    for name in SCHEMES:
        header += f" {name + '/est':>12} {name + '/meas':>12}"
    lines.append(header)
    for p in PROCS:
        row = f"{p:>5}"
        for name in SCHEMES:
            s = scheme_row(sweep[p], name)
            row += f" {s.estimated_us/1e6:12.4f} {s.measured_us/1e6:12.4f}"
        lines.append(row)
    emit("fig4_adi_sweep.txt", "\n".join(lines))

    for p in PROCS:
        result = sweep[p]
        # Column (sequentialized j sweeps) is always worse than row, and
        # the outright worst from four processors up (at P=2 the remapped
        # scheme's all-to-alls are even costlier than losing half the
        # machine to sequentialization).
        column = scheme_row(result, "column").measured_us
        assert column > scheme_row(result, "row").measured_us
        if p >= 4:
            assert column > scheme_row(result, "remapped").measured_us, \
                f"column not worst at P={p}"


def test_fig4_estimates_track_measurements(sweep):
    for p in PROCS:
        for name in SCHEMES:
            s = scheme_row(sweep[p], name)
            assert s.estimated_us == pytest.approx(s.measured_us, rel=0.5)


def test_fig4_tool_always_optimal_here(sweep):
    for p in PROCS:
        assert sweep[p].tool_optimal, f"suboptimal at P={p}"


def test_fig4_scaling_improves_with_processors(sweep):
    rows = [scheme_row(sweep[p], "row").measured_us for p in PROCS]
    assert rows[-1] < rows[0]


def test_fig4_measurement_runtime():
    """Run one measured (simulated) Adi execution."""
    from repro.programs.registry import PROGRAMS
    from repro.tool.measurement import measure_layouts

    result = cached_case("adi", N, DTYPE, 16)
    source = PROGRAMS["adi"].source(n=N, dtype=DTYPE, maxiter=3)
    layouts = {
        idx: result.assistant.layout_spaces.per_phase[idx][pos].layout
        for idx, pos in scheme_row(result, "row").selection.items()
    } if result.assistant else None
    if layouts is None:
        result2 = cached_case("adi", N, DTYPE, 16, keep_assistant=True)
        layouts = {
            idx: result2.assistant.layout_spaces.per_phase[idx][pos].layout
            for idx, pos in scheme_row(result2, "row").selection.items()
        }
    measure_layouts(source, layouts, 16)
