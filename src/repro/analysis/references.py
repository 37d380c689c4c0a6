"""Array-reference and affine-subscript extraction.

Alignment and distribution analysis both reason about *affine* subscripts
``c0 + c1*v1 + c2*v2 + ...`` over loop induction variables.  This module
normalizes every subscript expression of every array reference into that
form (or marks it non-affine), and records read/write direction plus the
enclosing loop nest, which later drives owner-computes communication
placement and dependence testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..frontend import ast
from ..frontend.symbols import SymbolTable


@dataclass(frozen=True)
class AffineExpr:
    """``const + sum(coeffs[v] * v)``; ``affine`` is False when the source
    expression could not be normalized (the variables/const are then
    meaningless)."""

    coeffs: Tuple[Tuple[str, int], ...]  # sorted (variable, coefficient)
    const: int
    affine: bool = True

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def is_constant(self) -> bool:
        return self.affine and not self.coeffs

    def single_index_var(self) -> Optional[str]:
        """The unique variable when the subscript is ``a*v + c``, else None."""
        if self.affine and len(self.coeffs) == 1:
            return self.coeffs[0][0]
        return None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if not self.affine:
            return "<non-affine>"
        parts = [f"{c}*{v}" if c != 1 else v for v, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


_NOT_AFFINE = AffineExpr(coeffs=(), const=0, affine=False)


def analyze_subscript(
    expr: ast.Expr, constants: Optional[Dict[str, int | float]] = None
) -> AffineExpr:
    """Normalize a subscript expression into affine form.

    ``constants`` supplies PARAMETER values so that e.g. ``n - 1`` with
    ``PARAMETER (n = 64)`` stays affine — but note we deliberately keep
    *symbolic* scalar names (like a runtime ``n``) as variables with
    coefficient so alignment analysis can still match ``a(i) = b(n - i)``
    style reversals.
    """
    constants = constants or {}

    def go(e: ast.Expr) -> Optional[Tuple[Dict[str, int], int]]:
        if isinstance(e, ast.IntLit):
            return {}, e.value
        if isinstance(e, ast.Var):
            if e.name in constants and isinstance(constants[e.name], int):
                return {}, int(constants[e.name])
            return {e.name: 1}, 0
        if isinstance(e, ast.UnaryOp):
            inner = go(e.operand)
            if inner is None:
                return None
            coeffs, const = inner
            if e.op == "-":
                return {v: -c for v, c in coeffs.items()}, -const
            if e.op == "+":
                return coeffs, const
            return None
        if isinstance(e, ast.BinOp):
            left = go(e.left)
            right = go(e.right)
            if e.op in ("+", "-"):
                if left is None or right is None:
                    return None
                lc, lk = left
                rc, rk = right
                sign = 1 if e.op == "+" else -1
                merged = dict(lc)
                for v, c in rc.items():
                    merged[v] = merged.get(v, 0) + sign * c
                return (
                    {v: c for v, c in merged.items() if c != 0},
                    lk + sign * rk,
                )
            if e.op == "*":
                if left is None or right is None:
                    return None
                lc, lk = left
                rc, rk = right
                if not lc:  # constant * linear
                    return (
                        {v: lk * c for v, c in rc.items() if lk * c != 0},
                        lk * rk,
                    )
                if not rc:  # linear * constant
                    return (
                        {v: rk * c for v, c in lc.items() if rk * c != 0},
                        rk * lk,
                    )
                return None
            return None
        return None

    result = go(expr)
    if result is None:
        return _NOT_AFFINE
    coeffs, const = result
    return AffineExpr(coeffs=tuple(sorted(coeffs.items())), const=const)


class AffineForms(dict):
    """Each distinct expression's :func:`analyze_subscript` form under
    one program's PARAMETER ``constants``, derived on first lookup.  A
    memo lives as long as one partitioning (or :func:`collect_accesses`)
    call: constants differ between programs, so none outlives it."""

    def __init__(self, constants: Dict[str, int | float]):
        super().__init__()
        self.constants = constants

    def __missing__(self, expr: ast.Expr) -> AffineExpr:
        aff = self[expr] = analyze_subscript(expr, self.constants)
        return aff


@dataclass(frozen=True)
class LoopInfo:
    """One enclosing DO loop of a reference: variable and (possibly
    symbolic) bounds evaluated against PARAMETER constants when constant."""

    var: str
    lo: Optional[int]
    hi: Optional[int]
    step: int
    depth: int  # 0 = outermost loop of the phase

    @property
    def trip_count(self) -> Optional[int]:
        if self.lo is None or self.hi is None:
            return None
        if self.step == 0:
            return None
        count = (self.hi - self.lo) // self.step + 1
        return max(count, 0)


@dataclass(frozen=True)
class ArrayAccess:
    """One static array reference with its normalized subscripts and the
    loop nest enclosing it."""

    array: str
    ref: ast.ArrayRef
    subscripts: Tuple[AffineExpr, ...]
    is_write: bool
    stmt: ast.Stmt
    loops: Tuple[LoopInfo, ...]  # outermost-first enclosing loops
    guard_probability: float = 1.0  # product of enclosing IF branch probs

    @property
    def rank(self) -> int:
        return len(self.subscripts)


def _eval_bound(expr: ast.Expr, forms: AffineForms) -> Optional[int]:
    aff = forms[expr]
    return aff.const if aff.is_constant() else None


def assignment_refs(stmt: ast.Assign) -> List[Tuple[ast.ArrayRef, bool]]:
    """``stmt``'s array references in record order, each with whether it
    is written: the target, the references in its subscripts (reads),
    then those of the right-hand side."""
    refs = ast.expr_array_refs(stmt.target) + ast.expr_array_refs(stmt.expr)
    written = isinstance(stmt.target, ast.ArrayRef)
    return [(ref, written and k == 0) for k, ref in enumerate(refs)]


def collect_accesses(
    stmts,
    symbols: SymbolTable,
    branch_probability: float = 0.5,
    branch_prob_overrides=None,
    refs_of=assignment_refs,
    forms: Optional[AffineForms] = None,
) -> List[ArrayAccess]:
    """Collect every array access in ``stmts`` (pre-order), tracking the
    enclosing loop nest and IF-guard probabilities.

    ``branch_probability`` is the guessed probability for each IF branch
    (the paper's prototype guesses 50%); ``branch_prob_overrides`` maps IF
    source lines to measured probabilities.  Partitioning passes the
    reference lists its walk recorded as ``refs_of`` and its call's
    ``forms``, so each phase reads them instead of deriving them again.
    """
    accesses: List[ArrayAccess] = []
    forms = AffineForms(symbols.constants) if forms is None else forms
    overrides = branch_prob_overrides or {}

    def visit(stmt_seq, loops: Tuple[LoopInfo, ...], prob: float) -> None:
        for stmt in stmt_seq:
            if isinstance(stmt, ast.Assign):
                _collect_stmt(stmt, loops, prob)
            elif isinstance(stmt, ast.Do):
                info = LoopInfo(
                    var=stmt.var,
                    lo=_eval_bound(stmt.lo, forms),
                    hi=_eval_bound(stmt.hi, forms),
                    step=(
                        _eval_bound(stmt.step, forms) or 1
                        if stmt.step is not None
                        else 1
                    ),
                    depth=len(loops),
                )
                visit(stmt.body, loops + (info,), prob)
            elif isinstance(stmt, ast.If):
                p_then = overrides.get(stmt.line, branch_probability)
                visit(stmt.then_body, loops, prob * p_then)
                visit(stmt.else_body, loops, prob * (1.0 - p_then))

    def _collect_stmt(
        stmt: ast.Assign, loops: Tuple[LoopInfo, ...], prob: float
    ) -> None:
        for ref, is_write in refs_of(stmt):
            if symbols.get(ref.name) is None:
                continue
            accesses.append(
                ArrayAccess(
                    array=ref.name,
                    ref=ref,
                    subscripts=tuple(map(forms.__getitem__, ref.subscripts)),
                    is_write=is_write,
                    stmt=stmt,
                    loops=loops,
                    guard_probability=prob,
                )
            )

    visit(stmts, (), 1.0)
    return accesses
