"""End-to-end shape tests: the paper's headline qualitative results,
verified at reduced problem scale so the suite stays fast.

These are the invariants EXPERIMENTS.md reports at full scale.
"""

import pytest

from repro.tool.schemes import TOOL
from repro.tool.testcases import TestCase, run_test_case


def schemes_by_name(result):
    return {s.name: s for s in result.schemes}


@pytest.fixture(scope="module")
def adi_result():
    return run_test_case(TestCase("adi", 200, "double", 8, maxiter=2))


@pytest.fixture(scope="module")
def erlebacher_result():
    return run_test_case(TestCase("erlebacher", 32, "double", 8))


@pytest.fixture(scope="module")
def tomcatv_result():
    return run_test_case(TestCase("tomcatv", 72, "double", 8, maxiter=2))


@pytest.fixture(scope="module")
def shallow_result():
    return run_test_case(TestCase("shallow", 136, "real", 8, maxiter=2))


class TestAdiShape:
    def test_column_is_worst(self, adi_result):
        by = schemes_by_name(adi_result)
        others = [s.measured_us for n, s in by.items()
                  if n not in ("column", TOOL)]
        assert by["column"].measured_us > max(others)

    def test_tool_optimal(self, adi_result):
        assert adi_result.tool_optimal

    def test_estimates_track_measurements(self, adi_result):
        for s in adi_result.schemes:
            assert s.estimated_us == pytest.approx(
                s.measured_us, rel=0.35
            )

    def test_remapped_crossover_exists(self):
        """Fine-grain pipelining wins at large n, remapping at high P."""
        large_n = run_test_case(
            TestCase("adi", 392, "double", 4, maxiter=2)
        )
        high_p = run_test_case(
            TestCase("adi", 200, "double", 32, maxiter=2)
        )
        by_large = schemes_by_name(large_n)
        by_high = schemes_by_name(high_p)
        assert by_large["row"].measured_us < \
            by_large["remapped"].measured_us
        assert by_high["remapped"].measured_us < \
            by_high["row"].measured_us


class TestErlebacherShape:
    def test_dist1_fine_pipeline_never_profitable(self, erlebacher_result):
        by = schemes_by_name(erlebacher_result)
        others = [s.measured_us for n, s in by.items()
                  if n not in ("dist1", TOOL)]
        assert by["dist1"].measured_us > min(others)

    def test_dist2_beats_dist3(self, erlebacher_result):
        by = schemes_by_name(erlebacher_result)
        assert by["dist2"].measured_us < by["dist3"].measured_us

    def test_dynamic_close_to_dist2(self, erlebacher_result):
        by = schemes_by_name(erlebacher_result)
        tool = by[TOOL]
        dist2 = by["dist2"]
        assert tool.measured_us <= dist2.measured_us
        assert tool.measured_us > 0.5 * dist2.measured_us

    def test_all_three_statics_enumerated(self, erlebacher_result):
        names = set(schemes_by_name(erlebacher_result))
        assert {"dist1", "dist2", "dist3"} <= names


class TestTomcatvShape:
    def test_column_beats_row(self, tomcatv_result):
        by = schemes_by_name(tomcatv_result)
        assert by["column"].measured_us < by["row"].measured_us

    def test_tool_at_least_as_good_as_column(self, tomcatv_result):
        by = schemes_by_name(tomcatv_result)
        assert by[TOOL].measured_us <= by["column"].measured_us * 1.001

    def test_guessed_branch_probability_underestimates(self):
        """Fig 6: with the 50% guess the estimates undershoot a run whose
        actual branch probability is higher."""
        result = run_test_case(
            TestCase("tomcatv", 136, "double", 8, maxiter=2),
            actual_branch_probability=1.0,
        )
        column = schemes_by_name(result)["column"]
        assert column.estimated_us < column.measured_us


class TestShallowShape:
    def test_column_slightly_better_than_row(self, shallow_result):
        by = schemes_by_name(shallow_result)
        col = by["column"].measured_us
        row = by["row"].measured_us
        assert col < row
        assert row < col * 1.3  # "slightly better", not a blowout

    def test_tool_picks_column(self, shallow_result):
        by = schemes_by_name(shallow_result)
        assert by[TOOL].selection == by["column"].selection

    def test_remapping_terrible_for_stencils(self, shallow_result):
        by = schemes_by_name(shallow_result)
        assert by["remapped"].measured_us > 2 * by["column"].measured_us


class TestILPPerformance:
    def test_all_ilp_instances_fast(self, adi_result, tomcatv_result):
        """Paper: every 0-1 instance solved in under 1.1 seconds."""
        for result in (adi_result, tomcatv_result):
            assistant = result.assistant
            if assistant is None:
                continue
            assert assistant.selection.solution.stats.wall_time < 1.1

    def test_selection_sizes_reported(self):
        result = run_test_case(
            TestCase("adi", 200, "double", 8, maxiter=2),
            keep_assistant=True,
        )
        sel = result.assistant.selection
        assert sel.num_variables > 0
        assert sel.num_constraints > 0
