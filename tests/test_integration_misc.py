"""Cross-module integration tests that close remaining coverage gaps."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.machine.simulator import simulate
from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestEstimatorVsSimulatorConsistency:
    """The headline property: for every named scheme of every program at
    one mid-size configuration, the assistant's estimate is within 40% of
    the simulated measurement, and the measured-best scheme is never
    estimated worst."""

    @pytest.mark.parametrize("name,n,kwargs", [
        ("adi", 200, {"maxiter": 2}),
        ("erlebacher", 40, {}),
        ("tomcatv", 136, {"maxiter": 2}),
        ("shallow", 136, {"maxiter": 2}),
    ])
    def test_estimates_track(self, name, n, kwargs):
        from repro.tool.testcases import TestCase, run_test_case

        case = TestCase(name, n=n, dtype=PROGRAMS[name].default_dtype,
                        nprocs=8, maxiter=kwargs.get("maxiter", 3))
        result = run_test_case(case)
        measured = {
            s.name: s for s in result.measured_schemes
        }
        for scheme in measured.values():
            assert scheme.estimated_us == pytest.approx(
                scheme.measured_us, rel=0.40
            ), (name, scheme.name)
        named = [s for s in measured.values() if s.name != "tool"]
        best = min(named, key=lambda s: s.measured_us)
        worst_est = max(named, key=lambda s: s.estimated_us)
        assert best.name != worst_est.name


class TestDynamicLayoutRoundTrip:
    def test_remap_counts_match_selection_edges(self):
        """The number of remaps the simulator performs equals what the
        selection's chosen remap edges predict (per time step, on Adi's
        dynamic scheme)."""
        from repro.tool.measurement import measure_layouts

        src = PROGRAMS["adi"].source(n=200, maxiter=4)
        result = run_assistant(src, AssistantConfig(nprocs=16))
        assert result.is_dynamic
        m = measure_layouts(src, result.selected_layouts, nprocs=16)
        # x and f flip twice per iteration; first iteration establishes
        # layouts lazily, so a few boundary flips are saved.
        assert m.remap_count > 0
        assert m.remap_count <= 4 * 4  # <= flips-per-iter * iters

    def test_static_selection_measures_with_zero_remaps(self):
        from repro.tool.measurement import measure_layouts

        src = PROGRAMS["shallow"].source(n=136, maxiter=2)
        result = run_assistant(src, AssistantConfig(nprocs=8))
        assert not result.is_dynamic
        m = measure_layouts(src, result.selected_layouts, nprocs=8)
        assert m.remap_count == 0


class TestSimulatorScaling:
    def test_parallel_phase_scales_with_processors(self):
        """A pure stencil program speeds up with machine size until
        latency dominates."""
        from repro.tool.measurement import measure_layouts

        src = PROGRAMS["shallow"].source(n=264, maxiter=2)
        times = {}
        for procs in (2, 8, 32):
            result = run_assistant(src, AssistantConfig(nprocs=procs))
            times[procs] = measure_layouts(
                src, result.selected_layouts, nprocs=procs
            ).makespan_us
        assert times[8] < times[2]
        assert times[32] < times[8]
        # efficiency decays: 16x procs buys < 16x speedup
        assert times[2] / times[32] < 16

    def test_message_counts_grow_with_machine(self):
        from repro.tool.measurement import measure_layouts

        src = PROGRAMS["shallow"].source(n=136, maxiter=2)
        counts = {}
        for procs in (4, 16):
            result = run_assistant(src, AssistantConfig(nprocs=procs))
            counts[procs] = measure_layouts(
                src, result.selected_layouts, nprocs=procs
            ).messages
        assert counts[16] > counts[4]


class TestHPFWriterOnAllPrograms:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_emits_valid_directives(self, name):
        from repro.tool.hpf_writer import write_hpf

        spec = PROGRAMS[name]
        kwargs = {"n": 24 if spec.template_rank == 3 else 64}
        if spec.has_time_loop:
            kwargs["maxiter"] = 2
        result = run_assistant(
            spec.source(**kwargs), AssistantConfig(nprocs=4)
        )
        text = write_hpf(result)
        assert text.startswith(f"program {name}")
        assert "!HPF$ template" in text
        assert "!HPF$ distribute" in text
        # every declared array has an ALIGN directive
        for symbol in result.symbols.arrays():
            assert f"align {symbol.name}(" in text

    def test_tomcatv_workspace_realigned(self):
        """Tomcatv's dynamic alignment flips show up as REALIGN
        directives on the workspace arrays."""
        from repro.tool.hpf_writer import write_hpf

        result = run_assistant(
            PROGRAMS["tomcatv"].source(n=136, maxiter=2),
            AssistantConfig(nprocs=8),
        )
        if result.is_dynamic:
            text = write_hpf(result)
            assert "!HPF$ realign" in text


class TestTopLevelAPI:
    def test_package_exports(self):
        import repro

        assert callable(repro.run_assistant)
        assert callable(repro.measure_layouts)
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet_shape(self, adi_small_source):
        """The README quickstart code path works verbatim."""
        from repro.tool.assistant import AssistantConfig, run_assistant
        from repro.tool.measurement import measure_layouts

        result = run_assistant(
            adi_small_source, AssistantConfig(nprocs=4)
        )
        assert result.selected_layouts
        assert result.predicted_total_us > 0
        assert isinstance(result.is_dynamic, bool)
        m = measure_layouts(
            adi_small_source, result.selected_layouts, nprocs=4
        )
        assert m.seconds > 0

    @pytest.mark.parametrize(
        "script", sorted(p.name for p in EXAMPLES.glob("*.py")))
    def test_example_script_runs(self, script, monkeypatch, capsys):
        """Each ``examples/*.py`` runs as ``python examples/<script>``
        does, with no arguments."""
        path = EXAMPLES / script
        monkeypatch.setattr(sys, "argv", [str(path)])
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out
