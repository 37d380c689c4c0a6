"""Subroutine inlining.

The paper's prototype performs only intra-procedural analysis — its
authors ran an *inlined* version of Erlebacher for exactly this reason.
This module is the tool-side answer: parse a multi-unit file and inline
every CALL, producing the single PROGRAM unit the rest of the framework
analyzes.

Supported argument passing (checked, with clear errors otherwise):

* whole arrays passed by name (``call sweep(a, b)`` with dummy arrays) —
  the dummy's references are renamed to the actual array;
* scalar variables passed by name — renamed likewise (Fortran passes by
  reference, so writes to scalar dummies update the actual);
* constant/expression actuals bound to *read-only* scalar dummies — the
  expression is substituted at each use.

Subroutine locals are renamed ``<sub>_<n>_<name>`` per call site, so
repeated calls never collide; their declarations are appended to the main
program's.  Calls inside subroutines are inlined recursively (cycles are
rejected).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from . import ast


class InlineError(Exception):
    """Raised for unsupported call patterns or missing subroutines."""


def _expr_rename(expr: ast.Expr, mapping: Dict[str, ast.Expr]) -> ast.Expr:
    """Substitute names in an expression.

    Array names map to plain ``Var`` targets whose name is taken; scalar
    names may map to arbitrary expressions.
    """
    if isinstance(expr, (ast.IntLit, ast.RealLit, ast.LogicalLit)):
        return expr
    if isinstance(expr, ast.Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, ast.ArrayRef):
        target = mapping.get(expr.name)
        if target is None:
            name = expr.name
        elif isinstance(target, ast.Var):
            name = target.name
        elif isinstance(target, ast.ArrayRef) and not target.subscripts:
            name = target.name
        else:
            raise InlineError(
                f"array dummy {expr.name!r} bound to a non-name actual"
            )
        return ast.ArrayRef(
            name=name,
            subscripts=tuple(
                _expr_rename(s, mapping) for s in expr.subscripts
            ),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(op=expr.op,
                           operand=_expr_rename(expr.operand, mapping))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            op=expr.op,
            left=_expr_rename(expr.left, mapping),
            right=_expr_rename(expr.right, mapping),
        )
    if isinstance(expr, ast.Call):
        return ast.Call(
            name=expr.name,
            args=tuple(_expr_rename(a, mapping) for a in expr.args),
        )
    raise InlineError(f"cannot rename {type(expr).__name__}")


def _stmt_rename(stmt: ast.Stmt, mapping: Dict[str, ast.Expr]) -> ast.Stmt:
    if isinstance(stmt, ast.Assign):
        target = _expr_rename(stmt.target, mapping)
        if not isinstance(target, (ast.Var, ast.ArrayRef)):
            raise InlineError(
                "assignment to a dummy bound to a non-variable actual"
            )
        return ast.Assign(
            target=target, expr=_expr_rename(stmt.expr, mapping),
            line=stmt.line,
        )
    if isinstance(stmt, ast.Do):
        var_expr = mapping.get(stmt.var)
        if var_expr is not None:
            if not isinstance(var_expr, ast.Var):
                raise InlineError(
                    f"loop variable {stmt.var!r} bound to an expression"
                )
            var = var_expr.name
        else:
            var = stmt.var
        return ast.Do(
            var=var,
            lo=_expr_rename(stmt.lo, mapping),
            hi=_expr_rename(stmt.hi, mapping),
            step=(
                _expr_rename(stmt.step, mapping)
                if stmt.step is not None else None
            ),
            body=tuple(_stmt_rename(s, mapping) for s in stmt.body),
            label=stmt.label,
            line=stmt.line,
        )
    if isinstance(stmt, ast.If):
        return ast.If(
            cond=_expr_rename(stmt.cond, mapping),
            then_body=tuple(
                _stmt_rename(s, mapping) for s in stmt.then_body
            ),
            else_body=tuple(
                _stmt_rename(s, mapping) for s in stmt.else_body
            ),
            line=stmt.line,
        )
    if isinstance(stmt, ast.Continue):
        return stmt
    if isinstance(stmt, ast.CallStmt):
        return ast.CallStmt(
            name=stmt.name,
            args=tuple(_expr_rename(a, mapping) for a in stmt.args),
            line=stmt.line,
        )
    raise InlineError(f"cannot rename {type(stmt).__name__}")


def _written_names(stmts: Sequence[ast.Stmt]) -> Set[str]:
    out: Set[str] = set()
    for stmt in ast.walk_stmts(stmts):
        if isinstance(stmt, ast.Assign):
            out.add(stmt.target.name)
        elif isinstance(stmt, ast.Do):
            out.add(stmt.var)
    return out


class _Inliner:
    def __init__(self, source_file: ast.SourceFile):
        self.subroutines = {s.name: s for s in source_file.subroutines}
        self.program = source_file.program
        self.extra_decls: List[ast.Declaration] = []
        self._counter = 0

    def run(self) -> ast.Program:
        body = self._inline_block(self.program.body, stack=())
        return ast.Program(
            name=self.program.name,
            declarations=tuple(self.program.declarations)
            + tuple(self.extra_decls),
            body=body,
        )

    def _inline_block(
        self, stmts: Sequence[ast.Stmt], stack: Tuple[str, ...]
    ) -> Tuple[ast.Stmt, ...]:
        out: List[ast.Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, ast.CallStmt):
                out.extend(self._expand_call(stmt, stack))
            elif isinstance(stmt, ast.Do):
                out.append(
                    ast.Do(
                        var=stmt.var, lo=stmt.lo, hi=stmt.hi,
                        step=stmt.step,
                        body=self._inline_block(stmt.body, stack),
                        label=stmt.label, line=stmt.line,
                    )
                )
            elif isinstance(stmt, ast.If):
                out.append(
                    ast.If(
                        cond=stmt.cond,
                        then_body=self._inline_block(stmt.then_body, stack),
                        else_body=self._inline_block(stmt.else_body, stack),
                        line=stmt.line,
                    )
                )
            else:
                out.append(stmt)
        return tuple(out)

    def _expand_call(
        self, call: ast.CallStmt, stack: Tuple[str, ...]
    ) -> Tuple[ast.Stmt, ...]:
        if call.name in stack:
            raise InlineError(
                f"recursive call chain {' -> '.join(stack + (call.name,))}"
            )
        sub = self.subroutines.get(call.name)
        if sub is None:
            raise InlineError(f"unknown subroutine {call.name!r}")
        if len(call.args) != len(sub.params):
            raise InlineError(
                f"call to {call.name!r} passes {len(call.args)} args, "
                f"declared with {len(sub.params)}"
            )
        self._counter += 1
        prefix = f"{sub.name}_{self._counter}_"

        mapping: Dict[str, ast.Expr] = {}
        written = _written_names(sub.body)
        param_set = set(sub.params)
        for dummy, actual in zip(sub.params, call.args):
            if isinstance(actual, ast.Var):
                mapping[dummy] = actual
            elif isinstance(actual, ast.ArrayRef) and not actual.subscripts:
                mapping[dummy] = ast.Var(actual.name)
            else:
                if dummy in written:
                    raise InlineError(
                        f"subroutine {sub.name!r} writes dummy "
                        f"{dummy!r}, but the call passes an expression"
                    )
                mapping[dummy] = actual

        # Rename locals (declared names that are not dummies) per site.
        for decl in sub.declarations:
            if isinstance(decl, ast.ParameterDecl):
                renamed = ast.ParameterDecl(
                    bindings=tuple(
                        (prefix + name, expr) for name, expr in decl.bindings
                    ),
                    line=decl.line,
                )
                self.extra_decls.append(renamed)
                for name, _expr in decl.bindings:
                    mapping[name] = ast.Var(prefix + name)
            elif isinstance(decl, (ast.TypeDecl, ast.DimensionDecl)):
                kept = []
                for entity in decl.entities:
                    if entity.name in param_set:
                        continue  # dummies take the actual's declaration
                    mapping.setdefault(
                        entity.name, ast.Var(prefix + entity.name)
                    )
                    kept.append(
                        ast.Entity(
                            name=prefix + entity.name,
                            dims=tuple(
                                ast.DimSpec(
                                    lo=_expr_rename(d.lo, mapping),
                                    hi=_expr_rename(d.hi, mapping),
                                )
                                for d in entity.dims
                            ),
                        )
                    )
                if kept:
                    if isinstance(decl, ast.TypeDecl):
                        self.extra_decls.append(
                            ast.TypeDecl(dtype=decl.dtype,
                                         entities=tuple(kept),
                                         line=decl.line)
                        )
                    else:
                        self.extra_decls.append(
                            ast.DimensionDecl(entities=tuple(kept),
                                              line=decl.line)
                        )
        # Undeclared locals (e.g. loop variables) also get fresh names.
        for name in sorted(written):
            if name not in mapping and name not in param_set:
                mapping[name] = ast.Var(prefix + name)
                self.extra_decls.append(
                    ast.TypeDecl(
                        dtype="integer",
                        entities=(ast.Entity(name=prefix + name),),
                    )
                )

        renamed_body = tuple(
            _stmt_rename(s, mapping) for s in sub.body
        )
        return self._inline_block(renamed_body, stack + (call.name,))


def inline_program(source_file: ast.SourceFile) -> ast.Program:
    """Inline every CALL in ``source_file``, returning one PROGRAM unit."""
    return _Inliner(source_file).run()


def parse_and_inline(source: str) -> ast.Program:
    """Convenience: parse a multi-unit file and inline it."""
    from .parser import parse_source_file

    return inline_program(parse_source_file(source))
