"""Affine subscript + access collection tests."""

import math

import pytest

from repro.analysis.references import analyze_subscript, collect_accesses
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_source
from repro.frontend.symbols import build_symbol_table


def expr_of(text):
    """Parse a standalone expression."""
    parser = Parser(tokenize(text))
    return parser._parse_expr()


class TestAffineAnalysis:
    def test_constant(self):
        aff = analyze_subscript(expr_of("5"))
        assert aff.is_constant() and aff.const == 5

    def test_single_variable(self):
        aff = analyze_subscript(expr_of("i"))
        assert aff.coeffs == (("i", 1),) and aff.const == 0
        assert aff.single_index_var() == "i"

    def test_offset(self):
        aff = analyze_subscript(expr_of("i - 1"))
        assert aff.coeff("i") == 1 and aff.const == -1

    def test_scaled(self):
        aff = analyze_subscript(expr_of("2 * i + 3"))
        assert aff.coeff("i") == 2 and aff.const == 3

    def test_negated(self):
        aff = analyze_subscript(expr_of("-i + 4"))
        assert aff.coeff("i") == -1 and aff.const == 4

    def test_two_variables(self):
        aff = analyze_subscript(expr_of("i + j"))
        assert aff.coeff("i") == 1 and aff.coeff("j") == 1
        assert aff.single_index_var() is None

    def test_cancellation(self):
        aff = analyze_subscript(expr_of("i - i + 2"))
        assert aff.is_constant() and aff.const == 2

    def test_parameter_substitution(self):
        aff = analyze_subscript(expr_of("n - 1"), constants={"n": 64})
        assert aff.is_constant() and aff.const == 63

    def test_symbolic_scalar_kept(self):
        aff = analyze_subscript(expr_of("n - i"))
        assert aff.coeff("n") == 1 and aff.coeff("i") == -1

    def test_product_of_variables_not_affine(self):
        aff = analyze_subscript(expr_of("i * j"))
        assert not aff.affine

    def test_division_not_affine(self):
        aff = analyze_subscript(expr_of("i / 2"))
        assert not aff.affine

    def test_constant_times_linear(self):
        aff = analyze_subscript(expr_of("3 * (i + 1)"))
        assert aff.coeff("i") == 3 and aff.const == 3


SRC = """
program t
      integer n
      parameter (n = 8)
      real a(n, n), b(n, n), v(n)
      real s
      integer i, j
      do j = 1, n
        do i = 2, n
          a(i, j) = b(i - 1, j) + v(i)
        enddo
      enddo
      do i = 1, n
        if (v(i) .gt. 0.0) then
          v(i) = v(i) * 2.0
        endif
      enddo
      end
"""


@pytest.fixture(scope="module")
def accesses():
    prog = parse_source(SRC)
    table = build_symbol_table(prog)
    return collect_accesses(prog.body, table)


class TestCollectAccesses:
    def test_counts(self, accesses):
        names = [(a.array, a.is_write) for a in accesses]
        assert ("a", True) in names
        assert ("b", False) in names
        assert ("v", False) in names

    def test_write_flag(self, accesses):
        writes = [a.array for a in accesses if a.is_write]
        assert set(writes) == {"a", "v"}

    def test_loop_nest_recorded(self, accesses):
        a_write = next(a for a in accesses if a.array == "a" and a.is_write)
        assert [l.var for l in a_write.loops] == ["j", "i"]
        assert a_write.loops[0].trip_count == 8
        assert a_write.loops[1].trip_count == 7

    def test_execution_count(self, accesses):
        a_write = next(a for a in accesses if a.array == "a" and a.is_write)
        assert math.prod(loop.trip_count for loop in a_write.loops) == 56

    def test_guard_probability(self, accesses):
        guarded = next(a for a in accesses if a.is_write and a.array == "v")
        assert guarded.guard_probability == pytest.approx(0.5)

    def test_guard_override(self):
        prog = parse_source(SRC)
        table = build_symbol_table(prog)
        if_line = next(
            i for i, line in enumerate(SRC.splitlines(), start=1)
            if ".gt. 0.0" in line
        )
        accs = collect_accesses(
            prog.body, table, branch_prob_overrides={if_line: 0.9}
        )
        guarded = next(a for a in accs if a.is_write and a.array == "v")
        assert guarded.guard_probability == pytest.approx(0.9)

    def test_dimension_for_loop(self, accesses):
        b_read = next(a for a in accesses if a.array == "b")
        uses = {
            var: [d for d, sub in enumerate(b_read.subscripts)
                  if sub.coeff(var) != 0]
            for var in ("i", "j", "k")
        }
        assert uses == {"i": [0], "j": [1], "k": []}

    def test_loop_for_dimension(self, accesses):
        b_read = next(a for a in accesses if a.array == "b")
        assert [sub.single_index_var() for sub in b_read.subscripts] \
            == ["i", "j"]
