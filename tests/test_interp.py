"""Reference-interpreter tests: subset semantics, benchmark-program
sanity, and semantic validation of the inliner and unparser."""

import numpy as np
import pytest

from repro.frontend.inline import inline_program
from repro.frontend.interp import (
    Environment,
    InterpError,
    run_program,
    run_source,
)
from repro.frontend.parser import parse_source_file
from repro.frontend.printer import format_program
from repro.programs.registry import PROGRAMS


def env_arrays(env: Environment):
    return {name: arr.data for name, arr in env.arrays.items()}


class TestBasics:
    def test_scalar_assignment(self):
        env = run_source(
            "program t\n      real x\n      x = 1.5\n      end\n"
        )
        assert env.scalars["x"] == 1.5

    def test_integer_division_truncates(self):
        env = run_source(
            "program t\n      integer k\n      k = 7 / 2\n      end\n"
        )
        assert env.scalars["k"] == 3

    def test_do_loop_fills_array(self):
        env = run_source(
            "program t\n      real a(5)\n      integer i\n"
            "      do i = 1, 5\n        a(i) = i * 2.0\n      enddo\n"
            "      end\n"
        )
        assert list(env.arrays["a"].data) == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_backward_loop(self):
        env = run_source(
            "program t\n      real a(4)\n      integer i\n"
            "      do i = 4, 1, -1\n        a(i) = i * 1.0\n      enddo\n"
            "      end\n"
        )
        assert list(env.arrays["a"].data) == [1.0, 2.0, 3.0, 4.0]

    def test_if_branches(self):
        env = run_source(
            "program t\n      integer k\n      real x\n      x = -2.0\n"
            "      if (x .lt. 0.0) then\n        k = 1\n"
            "      else\n        k = 2\n      endif\n      end\n"
        )
        assert env.scalars["k"] == 1

    def test_logical_operators(self):
        env = run_source(
            "program t\n      integer k\n      real x\n      x = 5.0\n"
            "      k = 0\n"
            "      if (x .gt. 0.0 .and. .not. x .gt. 10.0) k = 7\n"
            "      end\n"
        )
        assert env.scalars["k"] == 7

    def test_intrinsics(self):
        env = run_source(
            "program t\n      real x, y, z\n"
            "      x = sqrt(16.0)\n      y = max(2.0, 3.0)\n"
            "      z = abs(-1.5)\n      end\n"
        )
        assert env.scalars["x"] == 4.0
        assert env.scalars["y"] == 3.0
        assert env.scalars["z"] == 1.5

    def test_two_dimensional_indexing(self):
        env = run_source(
            "program t\n      real a(3, 3)\n      integer i, j\n"
            "      do j = 1, 3\n        do i = 1, 3\n"
            "          a(i, j) = i * 10.0 + j\n        enddo\n      enddo\n"
            "      end\n"
        )
        assert env.arrays["a"].get((2, 3)) == 23.0

    def test_explicit_lower_bound(self):
        env = run_source(
            "program t\n      real a(0:3)\n      integer i\n"
            "      do i = 0, 3\n        a(i) = i * 1.0\n      enddo\n"
            "      end\n"
        )
        assert env.arrays["a"].get((0,)) == 0.0
        assert env.arrays["a"].get((3,)) == 3.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(InterpError, match="outside"):
            run_source(
                "program t\n      real a(4)\n      a(5) = 1.0\n      end\n"
            )

    def test_statement_budget(self):
        with pytest.raises(InterpError, match="budget"):
            run_source(
                "program t\n      real a(2)\n      integer i, j\n"
                "      do j = 1, 10000\n        do i = 1, 10000\n"
                "          a(1) = 0.0\n        enddo\n      enddo\n"
                "      end\n",
                max_statements=1000,
            )

    def test_parameter_constants_available(self):
        env = run_source(
            "program t\n      integer n\n      parameter (n = 6)\n"
            "      real a(n)\n      integer i\n"
            "      do i = 1, n\n        a(i) = 1.0\n      enddo\n"
            "      end\n"
        )
        assert env.arrays["a"].data.shape == (6,)


class TestCalls:
    SRC = (
        "program p\n      real a(4)\n      real s\n      integer i\n"
        "      do i = 1, 4\n        a(i) = i * 1.0\n      enddo\n"
        "      s = 10.0\n"
        "      call bump(a, s)\n      end\n"
        "subroutine bump(x, amount)\n"
        "      real x(4)\n      real amount\n      integer i\n"
        "      do i = 1, 4\n        x(i) = x(i) + amount\n      enddo\n"
        "      amount = 0.0\n"
        "      end\n"
    )

    def test_array_passed_by_reference(self):
        env = run_source(self.SRC)
        assert list(env.arrays["a"].data) == [11.0, 12.0, 13.0, 14.0]

    def test_scalar_written_back(self):
        env = run_source(self.SRC)
        assert env.scalars["s"] == 0.0

    def test_expression_actual_not_written_back(self):
        src = (
            "program p\n      real a(2)\n"
            "      call setit(a, 2.0 + 1.0)\n      end\n"
            "subroutine setit(x, v)\n      real x(2)\n      real v\n"
            "      x(1) = v\n      end\n"
        )
        env = run_source(src)
        assert env.arrays["a"].get((1,)) == 3.0


class TestSemanticValidation:
    def test_inliner_preserves_semantics(self):
        """Running the multi-unit program directly (CALLs executed with
        reference semantics) equals running its inlined form."""
        src = (
            "program p\n"
            "      integer n\n      parameter (n = 12)\n"
            "      double precision a(n, n), b(n, n)\n"
            "      integer i, j, t\n"
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = 1.0 / (i + j)\n"
            "          b(i, j) = 0.0\n"
            "        enddo\n      enddo\n"
            "      do t = 1, 3\n"
            "        call relax(a, b, n)\n"
            "        call relax(b, a, n)\n"
            "      enddo\n      end\n"
            "subroutine relax(u, v, m)\n"
            "      integer m\n      double precision u(m, m), v(m, m)\n"
            "      integer i, j\n"
            "      do j = 2, m - 1\n        do i = 2, m - 1\n"
            "          v(i, j) = 0.25 * (u(i + 1, j) + u(i - 1, j) +"
            " u(i, j + 1) + u(i, j - 1))\n"
            "        enddo\n      enddo\n      end\n"
        )
        direct = run_source(src)
        inlined = inline_program(parse_source_file(src))
        via_inline = run_program(inlined)
        for name in ("a", "b"):
            np.testing.assert_allclose(
                direct.arrays[name].data, via_inline.arrays[name].data
            )

    def test_printer_round_trip_preserves_semantics(self):
        spec = PROGRAMS["adi"]
        src = spec.source(n=8, maxiter=2)
        original = run_source(src)
        printed = format_program(
            parse_source_file(src).program
        )
        reprinted = run_source(printed)
        for name in original.arrays:
            np.testing.assert_allclose(
                original.arrays[name].data,
                reprinted.arrays[name].data,
            )


class TestBenchmarkProgramSanity:
    """The re-created evaluation programs compute finite, non-degenerate
    values — they are real numerical kernels, not shaped stand-ins."""

    @pytest.mark.parametrize("name,n", [
        ("adi", 8), ("tomcatv", 8), ("shallow", 8), ("erlebacher", 6),
    ])
    def test_finite_values(self, name, n):
        spec = PROGRAMS[name]
        kwargs = {"n": n}
        if spec.has_time_loop:
            kwargs["maxiter"] = 2
        env = run_source(spec.source(**kwargs))
        for array_name, array in env.arrays.items():
            assert np.all(np.isfinite(array.data)), (name, array_name)

    def test_adi_sweeps_change_the_solution(self):
        env = run_source(PROGRAMS["adi"].source(n=8, maxiter=2))
        x = env.arrays["x"].data
        assert np.ptp(x) > 0  # not constant

    def test_shallow_wraps_are_periodic(self):
        env = run_source(PROGRAMS["shallow"].source(n=8, maxiter=1))
        cu = env.arrays["cu"].data
        np.testing.assert_allclose(cu[0, :], cu[7, :])

    def test_tomcatv_residual_reduces_mesh_motion(self):
        env = run_source(PROGRAMS["tomcatv"].source(n=8, maxiter=3))
        assert env.scalars["rmax"] >= 0.0
