"""Phase partitioning tests (paper Section 2.1)."""

import pytest

from repro.analysis.phases import (
    Branch,
    ControlLoop,
    PhaseItem,
    ScalarItem,
    partition_phases,
)
from repro.frontend import build_symbol_table, parse_source


def partition(src, **kwargs):
    prog = parse_source(src)
    table = build_symbol_table(prog)
    return partition_phases(prog, table, **kwargs), table


SIMPLE = """
program t
      integer n
      parameter (n = 8)
      real a(n)
      integer i, t
      do t = 1, 5
        do i = 1, n
          a(i) = a(i) + 1.0
        enddo
      enddo
      end
"""


class TestPhaseDetection:
    def test_time_loop_is_control_not_phase(self):
        part, _ = partition(SIMPLE)
        assert len(part) == 1
        assert part.phases[0].loop_var == "i"

    def test_structure_tree_shape(self):
        part, _ = partition(SIMPLE)
        items = part.structure.items
        assert len(items) == 1
        assert isinstance(items[0], ControlLoop)
        assert items[0].trips == 5
        inner = items[0].body.items
        assert isinstance(inner[0], PhaseItem)

    def test_loop_with_var_in_subscript_is_phase(self):
        src = """
program t
      real a(8)
      integer i
      do i = 1, 8
        a(i) = 0.0
      enddo
      end
"""
        part, _ = partition(src)
        assert len(part) == 1

    def test_loop_without_subscript_use_descends(self):
        # Outer loop variable k never appears in a subscript; inner i does.
        src = """
program t
      real a(8)
      real s
      integer i, k
      do k = 1, 3
        s = 0.0
        do i = 1, 8
          a(i) = s
        enddo
      enddo
      end
"""
        part, _ = partition(src)
        assert len(part) == 1
        loop = part.structure.items[0]
        assert isinstance(loop, ControlLoop) and loop.var == "k"

    def test_scalar_statements_collected(self):
        src = """
program t
      real a(8)
      real s
      integer i
      s = 1.0
      do i = 1, 8
        a(i) = s
      enddo
      s = 2.0
      end
"""
        part, _ = partition(src)
        kinds = [type(i).__name__ for i in part.structure.items]
        assert kinds == ["ScalarItem", "PhaseItem", "ScalarItem"]

    def test_phase_arrays_and_writes(self):
        src = """
program t
      real a(8), b(8)
      integer i
      do i = 2, 8
        a(i) = b(i - 1)
      enddo
      end
"""
        part, _ = partition(src)
        phase = part.phases[0]
        assert phase.arrays == ("a", "b")
        assert phase.written_arrays == ("a",)

    def test_loop_nest_deepest(self):
        src = """
program t
      real a(4, 4, 4)
      integer i, j, k
      do k = 1, 4
        do j = 1, 4
          do i = 1, 4
            a(i, j, k) = 1.0
          enddo
        enddo
      enddo
      end
"""
        part, _ = partition(src)
        nest = part.phases[0].loop_nest()
        assert [l.var for l in nest] == ["k", "j", "i"]


BRANCHY = """
program t
      integer n
      parameter (n = 8)
      real a(n), b(n)
      real s
      integer i, t
      do t = 1, 4
        do i = 1, n
          a(i) = a(i) + 1.0
        enddo
        if (s .gt. 0.0) then
          do i = 1, n
            b(i) = a(i)
          enddo
        endif
      enddo
      end
"""


class TestBranches:
    def test_branch_with_loop_becomes_branch_item(self):
        part, _ = partition(BRANCHY)
        loop = part.structure.items[0]
        kinds = [type(i).__name__ for i in loop.body.items]
        assert "Branch" in kinds

    def test_default_probability(self):
        part, _ = partition(BRANCHY)
        loop = part.structure.items[0]
        branch = next(
            i for i in loop.body.items if isinstance(i, Branch)
        )
        assert branch.prob == pytest.approx(0.5)

    def test_probability_override_by_line(self):
        if_line = next(
            i for i, line in enumerate(BRANCHY.splitlines(), start=1)
            if "if (s" in line
        )
        part, _ = partition(BRANCHY, branch_prob_overrides={if_line: 0.8})
        loop = part.structure.items[0]
        branch = next(
            i for i in loop.body.items if isinstance(i, Branch)
        )
        assert branch.prob == pytest.approx(0.8)

    def test_scalar_if_stays_scalar(self):
        src = """
program t
      real a(8)
      real s
      integer i
      do i = 1, 8
        a(i) = s
      enddo
      if (s .gt. 0.0) then
        s = 0.0
      endif
      end
"""
        part, _ = partition(src)
        kinds = [type(i).__name__ for i in part.structure.items]
        assert kinds == ["PhaseItem", "ScalarItem"]


def loop_program(body, decls="      integer m(8), idx(8)\n"):
    """A program with one ``do i`` loop around ``body``."""
    return (
        "program t\n      real a(8), b(8)\n      real s\n"
        f"      integer i, j, k\n{decls}      do i = 1, 8\n{body}"
        "      enddo\n      end\n"
    )


class TestPhaseTestCorners:
    """The paper's test looks for the loop variable in any subscript of
    any array reference in the body: nested references, the bounds of
    inner loops and IF conditions all count; scalar expressions do not."""

    @pytest.mark.parametrize("body", [
        # only in a reference nested inside a subscript
        "        a(idx(i)) = 0.0\n",
        # only in an inner loop's bound
        "        do j = 1, m(i)\n          b(j) = 1.0\n        enddo\n",
        # only in an IF condition
        "        if (a(i) .gt. 0.0) then\n          s = s + 1.0\n"
        "        endif\n",
        # only in an intrinsic's argument inside a subscript
        "        b(max(i, 1)) = s\n",
    ], ids=["nested-ref", "inner-bound", "if-cond", "intrinsic-arg"])
    def test_loop_var_in_any_subscript_makes_a_phase(self, body):
        part, _ = partition(loop_program(body))
        assert [p.loop_var for p in part.phases] == ["i"]
        assert isinstance(part.structure.items[0], PhaseItem)

    def test_loop_var_only_in_scalar_expressions_is_control(self):
        body = (
            "        s = s + i\n        a(1) = a(1) + i * 2.0\n"
            "        do k = 1, 8\n          b(k) = s\n        enddo\n"
        )
        part, _ = partition(loop_program(body))
        loop = part.structure.items[0]
        assert isinstance(loop, ControlLoop)
        assert (loop.var, loop.trips) == ("i", 8)
        assert [p.loop_var for p in part.phases] == ["k"]


class TestPaperPhaseCounts:
    @pytest.mark.parametrize(
        "fixture_name,expected",
        [
            ("adi_small", 9),
            ("erlebacher_small", 40),
            ("tomcatv_small", 17),
            ("shallow_small", 28),
        ],
    )
    def test_counts_match_paper(self, fixture_name, expected, request):
        _prog, _sym, part, _pcfg = request.getfixturevalue(fixture_name)
        assert len(part) == expected
