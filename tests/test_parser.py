"""Parser unit tests."""

import dataclasses

import pytest

from repro.frontend import ast
from repro.frontend.lexer import tokenize
from repro.frontend.parser import (
    ParseError,
    Parser,
    parse_source,
    parse_source_file,
)
from repro.programs.registry import PROGRAMS


def parse_body(stmts_text, decls="      integer i, j, k, n\n"):
    src = f"program t\n{decls}{stmts_text}      end\n"
    return parse_source(src).body


def parse_expr(expr_text):
    body = parse_body(f"      i = {expr_text}\n")
    assert isinstance(body[0], ast.Assign)
    return body[0].expr


class TestProgramStructure:
    def test_program_name(self):
        prog = parse_source("program hello\n      end\n")
        assert prog.name == "hello"
        assert prog.body == ()

    def test_missing_end_raises(self):
        with pytest.raises(ParseError):
            parse_source("program broken\n      x = 1\n")

    def test_declarations_collected(self):
        prog = parse_source(
            "program t\n"
            "      implicit none\n"
            "      integer n\n"
            "      parameter (n = 8)\n"
            "      real a(n), b\n"
            "      double precision c(n, n)\n"
            "      dimension d(3)\n"
            "      end\n"
        )
        # implicit none contributes no declaration node
        kinds = [type(d).__name__ for d in prog.declarations]
        assert kinds == ["TypeDecl", "ParameterDecl", "TypeDecl",
                         "TypeDecl", "DimensionDecl"]

    def test_double_precision_dtype(self):
        prog = parse_source(
            "program t\n      double precision x\n      end\n"
        )
        assert prog.declarations[0].dtype == "double"

    def test_dimension_bounds_pair(self):
        prog = parse_source(
            "program t\n      real a(0:7, 4)\n      end\n"
        )
        spec = prog.declarations[0].entities[0].dims[0]
        assert isinstance(spec.lo, ast.IntLit) and spec.lo.value == 0
        assert isinstance(spec.hi, ast.IntLit) and spec.hi.value == 7


class TestDoLoops:
    def test_enddo_form(self):
        body = parse_body(
            "      do i = 1, 10\n        j = i\n      enddo\n"
        )
        loop = body[0]
        assert isinstance(loop, ast.Do)
        assert loop.var == "i"
        assert loop.label is None
        assert len(loop.body) == 1

    def test_labeled_continue_form(self):
        body = parse_body(
            "      do 10 i = 1, 10\n        j = i\n 10   continue\n"
        )
        loop = body[0]
        assert loop.label == 10
        assert isinstance(loop.body[-1], ast.Continue)

    def test_nested_labeled_loops(self):
        body = parse_body(
            "      do 10 i = 1, 4\n"
            "        do 20 j = 1, 4\n"
            "          k = i + j\n"
            " 20     continue\n"
            " 10   continue\n"
        )
        outer = body[0]
        inner = outer.body[0]
        assert isinstance(inner, ast.Do)
        assert inner.label == 20

    def test_step_expression(self):
        body = parse_body("      do i = 10, 1, -1\n      enddo\n")
        loop = body[0]
        assert isinstance(loop.step, ast.UnaryOp)

    def test_missing_label_raises(self):
        with pytest.raises(ParseError):
            parse_body("      do 10 i = 1, 4\n        j = i\n")

    def test_symbolic_bounds(self):
        body = parse_body("      do i = 2, n - 1\n      enddo\n")
        assert isinstance(body[0].hi, ast.BinOp)


class TestIfStatements:
    def test_block_if(self):
        body = parse_body(
            "      if (i .gt. 0) then\n        j = 1\n      endif\n"
        )
        node = body[0]
        assert isinstance(node, ast.If)
        assert len(node.then_body) == 1
        assert node.else_body == ()

    def test_if_else(self):
        body = parse_body(
            "      if (i .gt. 0) then\n        j = 1\n"
            "      else\n        j = 2\n      endif\n"
        )
        node = body[0]
        assert len(node.then_body) == 1
        assert len(node.else_body) == 1

    def test_elseif_desugars_to_nested_if(self):
        body = parse_body(
            "      if (i .gt. 0) then\n        j = 1\n"
            "      elseif (i .lt. 0) then\n        j = 2\n"
            "      else\n        j = 3\n      endif\n"
        )
        node = body[0]
        assert len(node.else_body) == 1
        nested = node.else_body[0]
        assert isinstance(nested, ast.If)
        assert len(nested.else_body) == 1

    def test_logical_if(self):
        body = parse_body("      if (i .gt. 0) j = 1\n")
        node = body[0]
        assert isinstance(node, ast.If)
        assert isinstance(node.then_body[0], ast.Assign)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_power_right_associative(self):
        expr = parse_expr("2 ** 3 ** 2")
        assert expr.op == "**"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "**"

    def test_unary_minus(self):
        expr = parse_expr("-i")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "-"

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.BinOp) and expr.left.op == "+"

    def test_relational_binds_looser_than_arith(self):
        body = parse_body("      if (i + 1 .gt. j * 2) k = 1\n")
        cond = body[0].cond
        assert cond.op == ">"
        assert cond.left.op == "+"

    def test_logical_precedence(self):
        body = parse_body(
            "      if (i .gt. 0 .and. j .gt. 0 .or. k .gt. 0) k = 1\n"
        )
        cond = body[0].cond
        assert cond.op == ".or."
        assert cond.left.op == ".and."

    def test_intrinsic_call(self):
        expr = parse_expr("max(i, j)")
        assert isinstance(expr, ast.Call)
        assert expr.name == "max"
        assert len(expr.args) == 2

    def test_array_reference(self):
        body = parse_body(
            "      a(i, j) = a(i - 1, j) + 1.0\n",
            decls="      integer i, j\n      real a(8, 8)\n",
        )
        stmt = body[0]
        assert isinstance(stmt.target, ast.ArrayRef)
        assert stmt.target.rank == 2
        refs = list(ast.expr_array_refs(stmt.expr))
        assert len(refs) == 1 and refs[0].name == "a"

    def test_non_intrinsic_paren_is_array_ref(self):
        expr = parse_expr("foo(i)")
        assert isinstance(expr, ast.ArrayRef)

    def test_real_literal_double_flag(self):
        expr = parse_expr("1.5d0")
        assert isinstance(expr, ast.RealLit) and expr.is_double

    def test_assignment_to_expression_raises(self):
        with pytest.raises(ParseError):
            parse_body("      max(i, j) = 1\n")


class TestWalkHelpers:
    def test_walk_stmts_descends(self):
        body = parse_body(
            "      do i = 1, 4\n"
            "        if (i .gt. 2) then\n          j = i\n        endif\n"
            "      enddo\n"
        )
        stmts = list(ast.walk_stmts(body))
        assert any(isinstance(s, ast.Assign) for s in stmts)
        assert any(isinstance(s, ast.If) for s in stmts)

    def test_expr_array_refs_in_subscripts(self):
        body = parse_body(
            "      a(b(i)) = 1.0\n",
            decls="      integer i\n      real a(8)\n      integer b(8)\n",
        )
        stmt = body[0]
        subs_refs = [
            r for sub in stmt.target.subscripts
            for r in ast.expr_array_refs(sub)
        ]
        assert [r.name for r in subs_refs] == ["b"]


def parse_condition(cond_text):
    return parse_body(f"      if ({cond_text}) k = 1\n")[0].cond


class TestOperatorGrammar:
    """The precedence-climbing loop keeps the grammar's three quirks."""

    def test_not_takes_a_relational_not_a_conjunction(self):
        cond = parse_condition(".not. i .gt. 0 .and. j .gt. 0")
        assert cond.op == ".and."
        assert isinstance(cond.left, ast.UnaryOp) and cond.left.op == ".not."
        assert cond.left.operand.op == ">"

    def test_not_binds_looser_than_and_operands(self):
        cond = parse_condition(".not. i .and. j")
        assert cond == ast.BinOp(
            ".and.", ast.UnaryOp(".not.", ast.Var("i")), ast.Var("j")
        )

    @pytest.mark.parametrize("cond", ["i < j < k", "i .and. j < k < n"])
    def test_relationals_do_not_chain(self, cond):
        with pytest.raises(ParseError, match=r"expected '\)' \(at '<'\)"):
            parse_condition(cond)

    def test_power_right_side_goes_through_unary_minus(self):
        expr = parse_expr("-i ** -j")
        assert expr == ast.UnaryOp("-", ast.BinOp(
            "**", ast.Var("i"), ast.UnaryOp("-", ast.Var("j"))
        ))

    def test_sign_binds_tighter_than_product(self):
        assert parse_expr("-i * j") == ast.BinOp(
            "*", ast.UnaryOp("-", ast.Var("i")), ast.Var("j")
        )

    def test_not_inside_arithmetic_is_an_error(self):
        with pytest.raises(ParseError, match="expected expression"):
            parse_expr("i + .not. j")


class TestElseifLeavesTokensAlone:
    SOURCE = (
        "program t\n      integer i, j\n"
        "      if (i .gt. 0) then\n        j = 1\n"
        "      elseif (i .lt. 0) then\n        j = 2\n"
        "      endif\n      end\n"
    )

    def test_a_token_list_parses_twice(self):
        tokens = tokenize(self.SOURCE)
        before = list(tokens)
        first = Parser(tokens).parse_file()
        assert tokens == before
        assert Parser(tokens).parse_file() == first

    def test_nested_if_carries_the_elseif_line(self):
        (node,) = parse_source(self.SOURCE).body
        assert node.else_body[0].line == 5


def nodes(tree):
    """Every node object reachable from ``tree``, once per occurrence."""
    if dataclasses.is_dataclass(tree):
        yield tree
        for f in dataclasses.fields(tree):
            yield from nodes(getattr(tree, f.name))
    elif isinstance(tree, tuple):
        for item in tree:
            yield from nodes(item)


class TestSharedLeaves:
    """One parse builds one ``Var`` per name and one ``IntLit`` per
    value; the table lives for that parse only."""

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_one_leaf_object_per_name_and_value(self, program):
        tree = parse_source_file(PROGRAMS[program].source())
        for kind, key in ((ast.Var, "name"), (ast.IntLit, "value")):
            leaves = [n for n in nodes(tree) if type(n) is kind]
            objects = {}
            for leaf in leaves:
                objects.setdefault(getattr(leaf, key), set()).add(id(leaf))
            assert len(leaves) > len(objects)  # names and values repeat
            assert all(len(ids) == 1 for ids in objects.values()), kind

    def test_the_dimension_default_is_the_shared_one(self):
        tree = parse_source(
            "program t\n      real a(1:n), b(n)\n      a(1) = b(1)\n      end\n"
        )
        (decl,) = tree.declarations
        ones = {id(n) for n in nodes(tree) if n == ast.IntLit(1)}
        assert decl.entities[1].dims[0].lo is decl.entities[0].dims[0].lo
        assert len(ones) == 1

    def test_two_parses_share_no_node(self):
        source = PROGRAMS["tomcatv"].source()
        first, second = parse_source_file(source), parse_source_file(source)
        assert first == second
        kept = {id(n) for n in nodes(first)}
        assert not kept & {id(n) for n in nodes(second)}
