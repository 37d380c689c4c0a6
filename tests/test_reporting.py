"""Report formatting tests."""

import pytest

from repro.tool.report import (
    format_schemes,
    format_search_spaces,
    format_selection,
    format_summary,
    format_test_case,
)
from repro.tool.schemes import Scheme, enumerate_schemes
from repro.tool.testcases import SummaryRow


class TestSearchSpaceReport:
    def test_contains_all_phases(self, adi_assistant):
        text = format_search_spaces(adi_assistant)
        for idx in range(9):
            assert f"phase {idx} " in text

    def test_marks_selection(self, adi_assistant):
        text = format_search_spaces(adi_assistant)
        marked = [
            line for line in text.splitlines()
            if line.lstrip().startswith("* c")
        ]
        assert len(marked) == 9  # one selected candidate per phase

    def test_shows_exec_classes_and_times(self, adi_assistant):
        text = format_search_spaces(adi_assistant)
        assert "pipelined" in text
        assert "ms" in text


class TestSelectionReport:
    def test_mentions_prediction_and_ilp(self, adi_assistant):
        text = format_selection(adi_assistant)
        assert "predicted execution time" in text
        assert "variables" in text and "constraints" in text

    def test_static_vs_dynamic_label(self, adi_assistant):
        text = format_selection(adi_assistant)
        assert "static" in text or "DYNAMIC" in text

    def test_hpf_style_directives(self, adi_assistant):
        text = format_selection(adi_assistant)
        assert "!HPF$ TEMPLATE" in text
        assert "!HPF$ ALIGN x" in text


class TestSchemeTable:
    def test_unmeasured_scheme_shows_dash(self, adi_assistant):
        schemes = enumerate_schemes(adi_assistant)
        text = format_schemes(schemes)
        assert "-" in text
        assert "estimated" in text and "measured" in text

    def test_summary_totals(self):
        rows = [
            SummaryRow(program="adi", cases=40, tool_optimal=36,
                       worst_loss_percent=9.3,
                       best_scheme_counts={"row": 24, "remapped": 16},
                       rankings_correct=40),
            SummaryRow(program="shallow", cases=19, tool_optimal=19,
                       worst_loss_percent=0.0,
                       best_scheme_counts={"column": 19},
                       rankings_correct=19),
        ]
        text = format_summary(rows)
        assert "TOTAL" in text
        assert "59" in text  # total cases
        assert "55" in text  # total optimal
        assert "9.3%" in text

    def test_test_case_report(self):
        from repro.tool.report import format_test_case
        from repro.tool.testcases import TestCase, run_test_case

        result = run_test_case(
            TestCase("adi", 32, "double", 4, maxiter=2)
        )
        text = format_test_case(result)
        assert "tool picked" in text
        assert "OPTIMAL" in text or "suboptimal" in text
