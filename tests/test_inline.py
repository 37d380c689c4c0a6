"""Subroutine parsing + inliner tests (the interprocedural answer the
paper's prototype lacked)."""

import pytest

from repro.analysis.phases import partition_phases
from repro.frontend import ast
from repro.frontend.inline import InlineError, parse_and_inline
from repro.frontend.parser import ParseError, parse_source_file
from repro.frontend.printer import format_program
from repro.frontend.symbols import build_symbol_table


MULTI = """
program main
      implicit none
      integer n
      parameter (n = 16)
      double precision a(n, n), b(n, n)
      integer i, j
      do j = 1, n
        do i = 1, n
          a(i, j) = 1.0
          b(i, j) = 2.0
        enddo
      enddo
      call smooth(a, b, n)
      call smooth(b, a, n)
      end

subroutine smooth(u, v, m)
      implicit none
      integer m
      double precision u(m, m), v(m, m)
      double precision w
      integer i, j
      w = 0.25
      do j = 2, m - 1
        do i = 2, m - 1
          u(i, j) = w * (v(i + 1, j) + v(i - 1, j))
        enddo
      enddo
      end
"""


class TestParsing:
    def test_parse_file_units(self):
        sf = parse_source_file(MULTI)
        assert sf.program.name == "main"
        assert [s.name for s in sf.subroutines] == ["smooth"]
        assert sf.subroutines[0].params == ("u", "v", "m")

    def test_call_statement_parsed(self):
        sf = parse_source_file(MULTI)
        calls = [
            s for s in sf.program.body if isinstance(s, ast.CallStmt)
        ]
        assert len(calls) == 2
        assert calls[0].name == "smooth"
        assert len(calls[0].args) == 3

    def test_subroutine_without_args(self):
        src = (
            "program p\n      real a(4)\n      call init\n      end\n"
            "subroutine init\n      real a(4)\n      integer i\n"
            "      do i = 1, 4\n        a(i) = 0.0\n      enddo\n"
            "      end\n"
        )
        sf = parse_source_file(src)
        assert sf.subroutines[0].params == ()

    def test_file_without_program_rejected(self):
        with pytest.raises(ParseError):
            parse_source_file(
                "subroutine s\n      end\n"
            )


class TestInlining:
    def test_calls_replaced_by_bodies(self):
        prog = parse_and_inline(MULTI)
        assert not any(
            isinstance(s, ast.CallStmt) for s in ast.walk_stmts(prog.body)
        )
        # two call sites -> two inlined loop nests + the init nest
        loops = [s for s in prog.body if isinstance(s, ast.Do)]
        assert len(loops) == 3

    def test_array_dummies_renamed_to_actuals(self):
        prog = parse_and_inline(MULTI)
        text = format_program(prog)
        assert "u(" not in text and "v(" not in text
        # first call writes a from b; second writes b from a
        assert "a(i, j) = " in text or "a(smooth_1_i" in text

    def test_locals_renamed_per_site(self):
        prog = parse_and_inline(MULTI)
        table = build_symbol_table(prog)
        names = {s.name for s in table.scalars()}
        assert "smooth_1_w" in names
        assert "smooth_2_w" in names

    def test_scalar_actual_by_reference(self):
        # m is bound to the PARAMETER-backed variable n... here n is a
        # parameter constant, substituted as an expression into bounds.
        prog = parse_and_inline(MULTI)
        table = build_symbol_table(prog)
        part = partition_phases(prog, table)
        # init phase + 2 inlined smooth phases
        assert len(part) == 3

    def test_inlined_program_analyzes_end_to_end(self):
        from repro.frontend.printer import format_program
        from repro.tool.assistant import AssistantConfig, run_assistant

        prog = parse_and_inline(MULTI)
        result = run_assistant(
            format_program(prog), AssistantConfig(nprocs=4)
        )
        assert len(result.partition) == 3
        assert result.predicted_total_us > 0

    def test_assistant_accepts_multi_unit_source_directly(self):
        """run_assistant inlines multi-unit files itself, and measuring
        the selected layouts works on the same source."""
        from repro.tool.assistant import AssistantConfig, run_assistant
        from repro.tool.measurement import measure_layouts

        result = run_assistant(MULTI, AssistantConfig(nprocs=4))
        assert len(result.partition) == 3
        m = measure_layouts(MULTI, result.selected_layouts, nprocs=4)
        assert m.makespan_us > 0

    def test_nested_calls(self):
        src = (
            "program p\n      real a(8)\n      call outer(a)\n      end\n"
            "subroutine outer(x)\n      real x(8)\n"
            "      call inner(x)\n      end\n"
            "subroutine inner(y)\n      real y(8)\n      integer i\n"
            "      do i = 1, 8\n        y(i) = 1.0\n      enddo\n"
            "      end\n"
        )
        prog = parse_and_inline(src)
        loops = [s for s in prog.body if isinstance(s, ast.Do)]
        assert len(loops) == 1
        assert loops[0].body[0].target.name == "a"

    def test_recursion_rejected(self):
        src = (
            "program p\n      real a(4)\n      call s(a)\n      end\n"
            "subroutine s(x)\n      real x(4)\n"
            "      call s(x)\n      end\n"
        )
        with pytest.raises(InlineError, match="recursive"):
            parse_and_inline(src)

    def test_unknown_subroutine_rejected(self):
        src = "program p\n      real a(4)\n      call nope(a)\n      end\n"
        with pytest.raises(InlineError, match="unknown"):
            parse_and_inline(src)

    def test_arity_mismatch_rejected(self):
        src = (
            "program p\n      real a(4)\n      call s(a, a)\n      end\n"
            "subroutine s(x)\n      real x(4)\n      end\n"
        )
        with pytest.raises(InlineError, match="args"):
            parse_and_inline(src)

    def test_expression_actual_for_written_dummy_rejected(self):
        src = (
            "program p\n      real a(4)\n      real s\n"
            "      call f(s + 1.0)\n      end\n"
            "subroutine f(x)\n      real x\n      x = 2.0\n      end\n"
        )
        with pytest.raises(InlineError, match="writes dummy"):
            parse_and_inline(src)

    def test_expression_actual_for_readonly_dummy_ok(self):
        src = (
            "program p\n      real a(8)\n      integer i\n"
            "      call scale(a, 3.0)\n      end\n"
            "subroutine scale(x, factor)\n"
            "      real x(8)\n      real factor\n      integer i\n"
            "      do i = 1, 8\n        x(i) = x(i) * factor\n      enddo\n"
            "      end\n"
        )
        prog = parse_and_inline(src)
        text = format_program(prog)
        assert "* 3.0" in text


class TestSubroutineErlebacher:
    """A subroutine-structured Erlebacher-like code inlines into the same
    phase structure as the hand-inlined version — the exact workflow the
    paper's authors performed by hand."""

    SRC = """
program solver
      implicit none
      integer n
      parameter (n = 8)
      double precision f(n, n, n), ux(n, n, n), uy(n, n, n)
      integer i, j, k
      do k = 1, n
        do j = 1, n
          do i = 1, n
            f(i, j, k) = 1.0
          enddo
        enddo
      enddo
      call sweepx(f, ux, n)
      call sweepx(f, uy, n)
      end

subroutine sweepx(field, deriv, m)
      implicit none
      integer m
      double precision field(m, m, m), deriv(m, m, m)
      integer i, j, k
      do k = 1, m
        do j = 1, m
          do i = 2, m - 1
            deriv(i, j, k) = field(i + 1, j, k) - field(i - 1, j, k)
          enddo
        enddo
      enddo
      do k = 1, m
        do j = 1, m
          do i = 2, m
            deriv(i, j, k) = deriv(i, j, k) - deriv(i - 1, j, k)
          enddo
        enddo
      enddo
      end
"""

    def test_phase_structure(self):
        from repro.analysis.dependence import phase_dependences

        prog = parse_and_inline(self.SRC)
        table = build_symbol_table(prog)
        part = partition_phases(prog, table)
        assert len(part) == 5  # init + 2 x (stencil + sweep)
        dep_phases = [
            ph.index for ph in part.phases
            if any(d.kind == "flow" for d in phase_dependences(ph))
        ]
        assert dep_phases == [2, 4]
