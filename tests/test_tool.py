"""Assistant pipeline, schemes, measurement, and test-case runner tests."""

import pytest

from repro.machine.params import IPSC860, PARAGON
from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts
from repro.tool.schemes import TOOL, enumerate_schemes, measure_scheme
from repro.tool.testcases import (
    TestCase,
    grid_for,
    run_test_case,
    source_for,
    summarize,
)


class TestAssistant:
    def test_result_structure(self, adi_assistant):
        res = adi_assistant
        assert len(res.partition) == 9
        assert res.template.rank == 2
        assert set(res.selected_layouts) == set(range(9))
        assert res.predicted_total_us > 0

    def test_every_phase_has_selection(self, tomcatv_assistant):
        sel = tomcatv_assistant.selection.selection
        for idx, cands in tomcatv_assistant.layout_spaces.per_phase.items():
            assert 0 <= sel[idx] < len(cands)

    def test_reselect_with_restriction(self, adi_assistant):
        full = adi_assistant.selection
        restricted = adi_assistant.reselect(
            allowed={idx: {0} for idx in full.selection}
        )
        assert all(pos == 0 for pos in restricted.selection.values())
        assert restricted.objective >= full.objective - 1e-9

    def test_machine_parameterization(self, adi_small_source):
        slow = run_assistant(
            adi_small_source, AssistantConfig(nprocs=4, machine=IPSC860)
        )
        fast = run_assistant(
            adi_small_source, AssistantConfig(nprocs=4, machine=PARAGON)
        )
        assert fast.predicted_total_us < slow.predicted_total_us

    def test_branch_probability_changes_estimates(
        self, tomcatv_small_source
    ):
        low = run_assistant(
            tomcatv_small_source,
            AssistantConfig(nprocs=4, branch_probability=0.1),
        )
        high = run_assistant(
            tomcatv_small_source,
            AssistantConfig(nprocs=4, branch_probability=0.9),
        )
        assert high.predicted_total_us > low.predicted_total_us

    def test_branch_bound_backend_agrees(self, adi_small_source):
        a = run_assistant(adi_small_source, AssistantConfig(nprocs=4))
        b = run_assistant(
            adi_small_source,
            AssistantConfig(nprocs=4, ilp_backend="branch-bound"),
        )
        assert a.selection.objective == pytest.approx(b.selection.objective)


class TestMeasurement:
    def test_measure_selected_layouts(self, adi_assistant,
                                      adi_small_source):
        m = measure_layouts(
            adi_small_source,
            adi_assistant.selected_layouts,
            nprocs=4,
        )
        assert m.makespan_us > 0
        assert m.messages > 0
        assert m.seconds == pytest.approx(m.makespan_us / 1e6)

    def test_more_processors_usually_faster(self, adi_small_source):
        times = {}
        for procs in (2, 8):
            res = run_assistant(
                adi_small_source, AssistantConfig(nprocs=procs)
            )
            times[procs] = measure_layouts(
                adi_small_source, res.selected_layouts, nprocs=procs
            ).makespan_us
        assert times[8] < times[2]


class TestSchemes:
    def test_enumerate_contains_statics_and_tool(self, adi_assistant):
        schemes = enumerate_schemes(adi_assistant)
        names = [s.name for s in schemes]
        assert "row" in names and "column" in names
        assert TOOL in names

    def test_static_scheme_has_no_remaps(self, adi_assistant):
        schemes = enumerate_schemes(adi_assistant)
        row = next(s for s in schemes if s.name == "row")
        graph = adi_assistant.graph
        for edge in graph.edges:
            pair = (row.selection[edge.src_phase],
                    row.selection[edge.dst_phase])
            assert edge.costs.get(pair, 0.0) == 0.0

    def test_tool_estimate_is_minimum(self, adi_assistant):
        schemes = enumerate_schemes(adi_assistant)
        tool = next(s for s in schemes if s.name == TOOL)
        assert tool.estimated_us == min(s.estimated_us for s in schemes)

    def test_measure_scheme_fills_measurement(self, adi_assistant,
                                              adi_small_source):
        schemes = enumerate_schemes(adi_assistant)
        measure_scheme(schemes[0], adi_assistant, adi_small_source)
        assert schemes[0].measured_us is not None


class TestTestCases:
    def test_run_test_case_small(self):
        case = TestCase("adi", n=32, dtype="double", nprocs=4, maxiter=2)
        result = run_test_case(case)
        assert result.tool_measured_us > 0
        assert result.best_measured.measured_us > 0
        assert 0.0 <= result.loss_percent
        assert isinstance(result.tool_optimal, bool)

    def test_grid_counts_match_paper(self):
        counts = {
            name: len(grid_for(spec)) for name, spec in PROGRAMS.items()
        }
        assert counts == {
            "adi": 40, "erlebacher": 21, "tomcatv": 19, "shallow": 19
        }
        assert sum(counts.values()) == 99

    def test_source_for_respects_dtype(self):
        case = TestCase("shallow", n=64, dtype="real", nprocs=2)
        assert "real u(" in source_for(case)

    def test_summarize(self):
        case = TestCase("adi", n=32, dtype="double", nprocs=4, maxiter=2)
        result = run_test_case(case)
        rows = summarize([result, result])
        assert rows[0].cases == 2
        assert rows[0].program == "adi"
