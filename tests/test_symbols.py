"""Symbol table unit tests."""

import hashlib
import math
import pickle

import pytest

from repro.frontend import ast
from repro.frontend.parser import parse_source
from repro.frontend.symbols import (
    DTYPE_BYTES,
    ArraySymbol,
    ScalarSymbol,
    SymbolError,
    build_symbol_table,
    eval_const_expr,
)


def table_for(decls):
    src = f"program t\n{decls}      end\n"
    prog = parse_source(src)
    return build_symbol_table(prog)


class TestParameters:
    def test_simple_parameter(self):
        table = table_for("      integer n\n      parameter (n = 64)\n")
        assert table.constants["n"] == 64

    def test_parameter_expression(self):
        table = table_for(
            "      integer n, m\n      parameter (n = 8, m = n * 2 + 1)\n"
        )
        assert table.constants["m"] == 17

    def test_parameter_chain_across_decls(self):
        table = table_for(
            "      integer n\n      parameter (n = 4)\n"
            "      integer m\n      parameter (m = n ** 2)\n"
        )
        assert table.constants["m"] == 16

    def test_parameter_name_is_not_a_variable(self):
        table = table_for("      integer n\n      parameter (n = 4)\n")
        assert table.get("n") is None

    def test_integer_division_truncates(self):
        table = table_for("      integer n\n      parameter (n = 7 / 2)\n")
        assert table.constants["n"] == 3

    def test_unknown_name_in_constant_raises(self):
        with pytest.raises(SymbolError):
            table_for("      integer n\n      parameter (n = m + 1)\n")


class TestArrays:
    def test_array_extents(self):
        table = table_for(
            "      integer n\n      parameter (n = 16)\n"
            "      real a(n, n)\n"
        )
        sym = table.array("a")
        assert sym.extents == (16, 16)
        assert sym.element_count == 256
        assert sym.element_bytes == 4
        assert sym.total_bytes == 1024

    def test_double_precision_bytes(self):
        table = table_for("      double precision a(4)\n")
        assert table.array("a").total_bytes == 32

    def test_explicit_bounds(self):
        table = table_for("      real a(0:7)\n")
        assert table.array("a").bounds == ((0, 7),)
        assert table.array("a").extents == (8,)

    def test_dimension_statement_merges_with_type(self):
        table = table_for(
            "      double precision a\n      dimension a(8, 8)\n"
        )
        sym = table.array("a")
        assert sym.dtype == "double"
        assert sym.rank == 2

    def test_dimension_only_defaults_integer(self):
        table = table_for("      dimension a(4)\n")
        assert table.array("a").dtype == "integer"

    def test_empty_dimension_raises(self):
        with pytest.raises(SymbolError):
            table_for("      real a(5:2)\n")

    def test_array_lookup_on_scalar_raises(self):
        table = table_for("      real x\n")
        with pytest.raises(SymbolError):
            table.array("x")


class TestArraySymbolFacts:
    """``extents``, ``element_count`` and ``total_bytes`` are derived once
    per symbol; the symbol's identity is still its declaration."""

    SYM = ArraySymbol("u", "double", ((1, 8), (0, 3)))
    #: sha256 prefixes of ``pickle.dumps(SYM, protocol)`` taken before
    #: the derived facts were stored on the symbol
    PICKLES = {
        2: "1f77ffcc75093ada",
        3: "90684e8bf1face0d",
        4: "91c566fa3c769825",
        5: "1c4a79eb350c7405",
    }

    @pytest.mark.parametrize("dtype", sorted(DTYPE_BYTES))
    @pytest.mark.parametrize("bounds", [
        ((1, 1),), ((1, 8), (0, 3)), ((-2, 5), (3, 3), (1, 16)),
    ])
    def test_facts_equal_the_formula(self, dtype, bounds):
        sym = ArraySymbol("a", dtype, bounds)
        extents = tuple(hi - lo + 1 for lo, hi in bounds)
        assert sym.extents == extents
        assert sym.element_count == math.prod(extents)
        assert sym.total_bytes == math.prod(extents) * DTYPE_BYTES[dtype]

    def test_identity_is_the_declaration(self):
        sym = self.SYM
        twin = ArraySymbol("u", "double", ((1, 8), (0, 3)))
        assert sym == twin and hash(sym) == hash(twin)
        assert hash(sym) == hash((sym.name, sym.dtype, sym.bounds))
        assert sym != ArraySymbol("u", "real", sym.bounds)
        assert repr(sym) == (
            "ArraySymbol(name='u', dtype='double', bounds=((1, 8), (0, 3)))"
        )

    @pytest.mark.parametrize("protocol", sorted(PICKLES))
    def test_pickle_is_unchanged(self, protocol):
        sym = self.SYM
        sym.total_bytes  # a read derives nothing new to store
        data = pickle.dumps(sym, protocol=protocol)
        assert hashlib.sha256(data).hexdigest()[:16] == self.PICKLES[protocol]
        back = pickle.loads(data)
        assert back == sym
        assert (back.extents, back.element_count, back.total_bytes) == (
            (8, 4), 32, 256
        )


class TestScalarsAndLoops:
    def test_scalar_symbol(self):
        table = table_for("      real x\n")
        assert isinstance(table.get("x"), ScalarSymbol)
        assert table.get("x").dtype == "real"

    def test_undeclared_loop_var_becomes_integer(self):
        src = (
            "program t\n      real a(8)\n"
            "      do q = 1, 8\n        a(q) = 0.0\n      enddo\n"
            "      end\n"
        )
        table = build_symbol_table(parse_source(src))
        sym = table.get("q")
        assert isinstance(sym, ScalarSymbol) and sym.dtype == "integer"

    def test_arrays_listing(self):
        table = table_for("      real a(2), b(3)\n      integer x\n")
        assert [s.name for s in table.arrays()] == ["a", "b"]
        assert "x" in [s.name for s in table.scalars()]


class TestEvalConstExpr:
    def test_unary_minus(self):
        assert eval_const_expr(
            ast.UnaryOp("-", ast.IntLit(5)), {}
        ) == -5

    def test_non_constant_raises(self):
        with pytest.raises(SymbolError):
            eval_const_expr(ast.Call("max", (ast.IntLit(1),)), {})
