"""Abstract syntax tree for the Fortran-77 subset accepted by the tool.

The prototype in the paper restricts non-linear control flow to ``DO`` loops
and ``IF`` statements (Section 3); the node set below covers exactly that
subset plus the declarations needed to size arrays:

* expressions: numeric literals, scalar variables, array references with
  affine subscripts, unary/binary operators, and intrinsic calls;
* statements: assignments, counted ``DO`` loops, block ``IF``/``ELSE``, and
  ``CONTINUE``;
* declarations: ``INTEGER`` / ``REAL`` / ``DOUBLE PRECISION`` entity lists
  (optionally with dimension specs), ``DIMENSION``, and ``PARAMETER``.

All nodes are immutable dataclasses so they can be shared freely between
analyses; positions (``line``) point back into the original source for
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class IntLit(Expr):
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class RealLit(Expr):
    """Real or double-precision literal (``1.5``, ``1D0``, ``2.5E-3``)."""

    value: float
    is_double: bool = False


@dataclass(frozen=True)
class LogicalLit(Expr):
    """``.TRUE.`` or ``.FALSE.``."""

    value: bool


@dataclass(frozen=True)
class Var(Expr):
    """Reference to a scalar variable (or loop induction variable)."""

    name: str


@dataclass(frozen=True)
class ArrayRef(Expr):
    """Reference to ``name(sub_1, ..., sub_d)``."""

    name: str
    subscripts: Tuple[Expr, ...]

    @property
    def rank(self) -> int:
        return len(self.subscripts)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary ``-``, ``+`` or ``.NOT.``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic (``+ - * / **``), relational (``.LT.`` etc. stored
    as ``< <= > >= == /=``) or logical (``.AND.`` / ``.OR.``) operator."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Intrinsic function call such as ``SQRT(x)`` or ``MAX(a, b)``."""

    name: str
    args: Tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for statement nodes."""

    line: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = expr`` where target is a scalar or an array element."""

    target: Union[Var, ArrayRef]
    expr: Expr


@dataclass(frozen=True)
class Do(Stmt):
    """Counted DO loop ``DO var = lo, hi [, step]``.

    ``label`` records the statement label for the classic
    ``DO 10 ... 10 CONTINUE`` form; loops written with ``ENDDO`` have
    ``label is None``.
    """

    var: str
    lo: Expr
    hi: Expr
    step: Optional[Expr]
    body: Tuple[Stmt, ...]
    label: Optional[int] = None


@dataclass(frozen=True)
class If(Stmt):
    """Block IF with optional ELSE part (ELSEIF chains are desugared into
    nested ``If`` nodes in the else branch)."""

    cond: Expr
    then_body: Tuple[Stmt, ...]
    else_body: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class Continue(Stmt):
    """``CONTINUE`` — a no-op, kept so labelled loop ends survive parsing."""


@dataclass(frozen=True)
class CallStmt(Stmt):
    """``CALL name(arg, ...)`` — removed by the inliner before analysis."""

    name: str
    args: Tuple[Expr, ...] = ()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimSpec:
    """One declared dimension ``lo:hi`` (Fortran default ``lo = 1``).

    Bounds are expressions so they may reference PARAMETER constants; the
    symbol-table pass evaluates them to integers.
    """

    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class Entity:
    """A declared name, optionally with a dimension spec list."""

    name: str
    dims: Tuple[DimSpec, ...] = ()


@dataclass(frozen=True)
class TypeDecl:
    """``INTEGER``/``REAL``/``DOUBLE PRECISION`` declaration."""

    dtype: str  # "integer" | "real" | "double"
    entities: Tuple[Entity, ...]
    line: int = 0


@dataclass(frozen=True)
class DimensionDecl:
    """Standalone ``DIMENSION a(n, m), ...`` declaration."""

    entities: Tuple[Entity, ...]
    line: int = 0


@dataclass(frozen=True)
class ParameterDecl:
    """``PARAMETER (name = const-expr, ...)``."""

    bindings: Tuple[Tuple[str, Expr], ...]
    line: int = 0


Declaration = Union[TypeDecl, DimensionDecl, ParameterDecl]


@dataclass(frozen=True)
class Program:
    """A parsed PROGRAM unit."""

    name: str
    declarations: Tuple[Declaration, ...]
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Subroutine:
    """A parsed SUBROUTINE unit (consumed by the inliner)."""

    name: str
    params: Tuple[str, ...]
    declarations: Tuple[Declaration, ...]
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class SourceFile:
    """A parsed file: one PROGRAM plus any number of SUBROUTINEs."""

    program: Program
    subroutines: Tuple[Subroutine, ...]


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, ArrayRef):
        for sub in expr.subscripts:
            yield from walk_expr(sub)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)


def walk_stmts(stmts):
    """Yield every statement in ``stmts``, pre-order, descending into
    loop and branch bodies."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, Do):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)


def expr_array_refs(expr: Expr) -> List[ArrayRef]:
    """Every :class:`ArrayRef` inside ``expr`` (including inside the
    subscripts of other references), pre-order."""
    refs: List[ArrayRef] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, ArrayRef):
            refs.append(node)
            stack.extend(reversed(node.subscripts))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.extend(reversed(node.args))
    return refs


def stmt_exprs(stmt: Stmt):
    """Yield the top-level expressions of a single statement (not its
    nested statement bodies)."""
    if isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.expr
    elif isinstance(stmt, Do):
        yield stmt.lo
        yield stmt.hi
        if stmt.step is not None:
            yield stmt.step
    elif isinstance(stmt, If):
        yield stmt.cond
