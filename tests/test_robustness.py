"""Robustness and failure-injection tests: malformed inputs, degenerate
configurations, and graceful-degradation paths."""

import pytest

from repro.frontend.lexer import LexError
from repro.frontend.parser import ParseError, parse_source
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.measurement import measure_layouts

WRAP = (
    "program t\n"
    "      integer n\n      parameter (n = 12)\n"
    "      double precision a(n, n), b(n, n)\n"
    "      integer i, j\n"
    "{body}"
    "      end\n"
)


def assistant_for(body, nprocs=4):
    return run_assistant(
        WRAP.format(body=body), AssistantConfig(nprocs=nprocs)
    )


class TestDegenerateInputs:
    def test_no_arrays_is_an_error(self):
        src = "program t\n      real x\n      x = 1.0\n      end\n"
        with pytest.raises(ValueError):
            run_assistant(src, AssistantConfig(nprocs=4))

    def test_goto_rejected_cleanly(self):
        src = "program t\n      real a(4)\n      goto 10\n      end\n"
        with pytest.raises(ParseError):
            parse_source(src)

    def test_unbalanced_do_rejected(self):
        src = (
            "program t\n      real a(4)\n      integer i\n"
            "      do i = 1, 4\n        a(i) = 0.0\n      end\n"
        )
        with pytest.raises(ParseError):
            parse_source(src)

    def test_bad_character_rejected(self):
        with pytest.raises(LexError):
            parse_source("program t\n      x = $\n      end\n")

    def test_program_without_phases_degrades_gracefully(self):
        """Arrays declared but only scalar statements: no phases, an
        empty selection, zero predicted cost — not a crash."""
        src = (
            "program t\n      real a(4)\n      real s\n"
            "      s = 1.0\n      end\n"
        )
        result = run_assistant(src, AssistantConfig(nprocs=4))
        assert len(result.partition) == 0
        assert result.selection.selection == {}
        assert result.predicted_total_us == 0.0


class TestUnusualButLegal:
    def test_non_affine_subscripts_survive(self):
        """i*j subscripts cannot be analyzed; the phase still gets a
        layout (conservative: no alignment preference, no partitioning
        benefit assumed)."""
        result = assistant_for(
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = b(i * j / n + 1, j)\n"
            "        enddo\n      enddo\n"
        )
        assert len(result.partition) == 1
        assert result.predicted_total_us > 0

    def test_zero_trip_loop(self):
        result = assistant_for(
            "      do j = 1, n\n        do i = 5, 4\n"
            "          a(i, j) = 0.0\n        enddo\n      enddo\n"
        )
        assert result.predicted_total_us >= 0

    def test_single_processor(self):
        result = assistant_for(
            "      do j = 1, n\n        do i = 2, n\n"
            "          a(i, j) = a(i - 1, j)\n        enddo\n      enddo\n",
            nprocs=1,
        )
        m = measure_layouts(
            WRAP.format(
                body="      do j = 1, n\n        do i = 2, n\n"
                     "          a(i, j) = a(i - 1, j)\n"
                     "        enddo\n      enddo\n"
            ),
            result.selected_layouts,
            nprocs=1,
        )
        assert m.messages == 0  # nothing to communicate

    def test_non_power_of_two_processors(self):
        """The iPSC was a power-of-two hypercube, but the framework only
        needs it for hop counts; 6 processors work end to end."""
        body = (
            "      do j = 1, n\n        do i = 2, n\n"
            "          a(i, j) = b(i - 1, j)\n        enddo\n      enddo\n"
        )
        result = assistant_for(body, nprocs=6)
        m = measure_layouts(
            WRAP.format(body=body), result.selected_layouts, nprocs=6
        )
        assert m.makespan_us > 0

    def test_more_processors_than_extent(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = b(i, j)\n        enddo\n      enddo\n"
        )
        result = assistant_for(body, nprocs=32)  # n = 12 < 32
        m = measure_layouts(
            WRAP.format(body=body), result.selected_layouts, nprocs=32
        )
        assert m.makespan_us > 0

    def test_control_loop_over_localized_phase(self):
        # 2-D arrays inside a triply nested loop: outer loop is control.
        result = assistant_for(
            "      do i = 1, 3\n"
            "        do j = 1, n\n"
            "          a(1, j) = a(1, j) + 1.0\n"
            "        enddo\n      enddo\n"
        )
        assert result.predicted_total_us > 0

    def test_self_copy_statement(self):
        result = assistant_for(
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = a(i, j)\n        enddo\n      enddo\n"
        )
        assert result.predicted_total_us > 0

    def test_constant_only_phase(self):
        """A 1-D loop writing a fixed row: localized execution."""
        result = assistant_for(
            "      do j = 1, n\n"
            "        a(3, j) = b(3, j) * 2.0\n      enddo\n"
        )
        assert result.predicted_total_us > 0

    def test_empty_then_branch(self):
        result = assistant_for(
            "      do j = 1, n\n        do i = 1, n\n"
            "          if (a(i, j) .gt. 0.0) then\n"
            "            b(i, j) = 1.0\n"
            "          endif\n"
            "        enddo\n      enddo\n"
        )
        assert result.predicted_total_us > 0

    def test_negative_parameter(self):
        src = (
            "program t\n"
            "      integer off\n      parameter (off = -1)\n"
            "      double precision a(8)\n      integer i\n"
            "      do i = 2, 8\n        a(i) = a(i + off)\n      enddo\n"
            "      end\n"
        )
        result = run_assistant(src, AssistantConfig(nprocs=2))
        assert result.predicted_total_us > 0


class TestMeasurementRobustness:
    def test_wrong_phase_count_layouts_rejected(self, adi_assistant,
                                                adi_small_source):
        partial = dict(list(adi_assistant.selected_layouts.items())[:3])
        with pytest.raises(KeyError):
            measure_layouts(adi_small_source, partial, nprocs=4)

    def test_measurement_deterministic(self, adi_assistant,
                                       adi_small_source):
        a = measure_layouts(
            adi_small_source, adi_assistant.selected_layouts, nprocs=4
        )
        b = measure_layouts(
            adi_small_source, adi_assistant.selected_layouts, nprocs=4
        )
        assert a.makespan_us == b.makespan_us
        assert a.messages == b.messages
