"""Tests for the DOT export and memory-footprint utilities."""

import pytest

from repro.tool import memory
from repro.tool.graphviz import export_dot, layout_graph_to_dot, pcfg_to_dot
from repro.tool.memory import memory_footprint


class TestDotExport:
    def test_pcfg_dot_structure(self, adi_assistant):
        dot = pcfg_to_dot(adi_assistant.pcfg)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        # all phases present, entry/exit marked
        for idx in range(9):
            assert f"phase {idx}" in dot
        assert "entry" in dot and "exit" in dot

    def test_pcfg_dot_edge_frequencies(self, adi_assistant):
        dot = pcfg_to_dot(adi_assistant.pcfg)
        # the time loop runs twice: back-edge labelled 1
        assert 'label="1"' in dot

    def test_layout_graph_dot(self, adi_assistant):
        dot = layout_graph_to_dot(
            adi_assistant.graph, adi_assistant.selection.selection
        )
        assert "cluster_0" in dot and "cluster_8" in dot
        assert "palegreen" in dot  # selected candidates highlighted
        assert "ms" in dot

    def test_selected_remap_edges_highlighted(self):
        from repro.programs.registry import PROGRAMS
        from repro.tool.assistant import AssistantConfig, run_assistant

        result = run_assistant(
            PROGRAMS["adi"].source(n=200, maxiter=2),
            AssistantConfig(nprocs=16),
        )
        assert result.is_dynamic
        dot = layout_graph_to_dot(result.graph, result.selection.selection)
        assert 'color="red"' in dot

    def test_export_dot_bundle(self, adi_assistant):
        bundle = export_dot(adi_assistant)
        assert set(bundle) == {"pcfg.dot", "layout_graph.dot"}
        for text in bundle.values():
            assert text.count("{") == text.count("}")


class TestMemoryFootprint:
    def test_distribution_divides_footprint(self, adi_assistant):
        report = memory_footprint(
            adi_assistant.symbols, adi_assistant.selected_layouts
        )
        # 6 arrays of 32x32 doubles over 4 procs, plus ghost overhead
        expected_local = 6 * (32 * 32 * 8 // 4)
        assert report.total_bytes == pytest.approx(
            expected_local * 1.05, rel=0.01
        )
        assert report.fits

    def test_per_array_entries(self, adi_assistant):
        report = memory_footprint(
            adi_assistant.symbols, adi_assistant.selected_layouts
        )
        assert set(report.per_array) == {"a", "b", "c", "d", "f", "x"}

    def test_replicated_array_charged_fully(self):
        from repro.programs.registry import PROGRAMS
        from repro.tool.assistant import AssistantConfig, run_assistant

        result = run_assistant(
            PROGRAMS["erlebacher"].source(n=16), AssistantConfig(nprocs=4)
        )
        report = memory_footprint(result.symbols, result.selected_layouts)
        # 1-D coefficient arrays replicated along undistributed dims:
        # their local share is the full vector
        assert report.per_array["ax"] >= 16 * 8

    def test_does_not_fit_detection(self, adi_assistant, monkeypatch):
        monkeypatch.setattr(memory, "NODE_BYTES", 1024)
        report = memory_footprint(
            adi_assistant.symbols, adi_assistant.selected_layouts
        )
        assert not report.fits
        assert report.total_bytes > report.node_bytes
        assert "DOES NOT FIT" in str(report)

    def test_grid_skips_are_memory_motivated(self):
        """The largest two-processor cases excluded from the Tomcatv and
        Shallow grids genuinely exceed the simulated node memory (while
        the same problems fit from four processors up, and Adi's largest
        case fits even on two nodes)."""
        from repro.programs.registry import PROGRAMS
        from repro.tool.assistant import AssistantConfig, run_assistant

        for name, dtype, n in (("tomcatv", "double", 544),
                               ("shallow", "real", 520)):
            source = PROGRAMS[name].source(n=n, dtype=dtype, maxiter=2)
            result = run_assistant(source, AssistantConfig(nprocs=2))
            report = memory_footprint(
                result.symbols, result.selected_layouts
            )
            assert not report.fits, name
            # ...while the four-processor runs fit.
            result4 = run_assistant(source, AssistantConfig(nprocs=4))
            report4 = memory_footprint(
                result4.symbols, result4.selected_layouts
            )
            assert report4.fits, name
