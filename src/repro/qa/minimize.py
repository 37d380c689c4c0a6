"""Greedy failure minimization: shrink a failing program while
re-checking that it still fails.

The algorithm is classic delta-debugging specialised to the subset AST:

1. repeatedly try deleting one statement anywhere in the program (walking
   statement sequences recursively, so whole loops, loop-body statements
   and branch arms are all candidates), keeping any deletion that
   preserves the failure predicate;
2. when no single statement deletion preserves the failure, try
   *flattening* — replacing a ``DO`` or ``IF`` by its body;
3. finally prune declarations of arrays the shrunken body no longer
   references.

The predicate receives a candidate :class:`~repro.frontend.ast.Program`
and returns True when the failure still reproduces; predicate exceptions
count as "does not reproduce", so the minimizer never trades one bug for
a different one.  The total number of predicate evaluations is capped.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from ..frontend import ast

Predicate = Callable[[ast.Program], bool]

#: hard cap on predicate evaluations per minimization
MAX_PREDICATE_CALLS = 400


def _delete_in_seq(
    stmts: Tuple[ast.Stmt, ...]
) -> Iterator[Tuple[ast.Stmt, ...]]:
    """All sequences obtainable by deleting exactly one statement
    (recursively inside loop and branch bodies)."""
    for idx, stmt in enumerate(stmts):
        yield stmts[:idx] + stmts[idx + 1:]
        if isinstance(stmt, ast.Do):
            for body in _delete_in_seq(stmt.body):
                yield stmts[:idx] + (
                    ast.Do(var=stmt.var, lo=stmt.lo, hi=stmt.hi,
                           step=stmt.step, body=body, label=stmt.label,
                           line=stmt.line),
                ) + stmts[idx + 1:]
        elif isinstance(stmt, ast.If):
            for body in _delete_in_seq(stmt.then_body):
                yield stmts[:idx] + (
                    ast.If(cond=stmt.cond, then_body=body,
                           else_body=stmt.else_body, line=stmt.line),
                ) + stmts[idx + 1:]
            for body in _delete_in_seq(stmt.else_body):
                yield stmts[:idx] + (
                    ast.If(cond=stmt.cond, then_body=stmt.then_body,
                           else_body=body, line=stmt.line),
                ) + stmts[idx + 1:]


def _flatten_in_seq(
    stmts: Tuple[ast.Stmt, ...]
) -> Iterator[Tuple[ast.Stmt, ...]]:
    """All sequences obtainable by replacing one compound statement with
    its body (recursively)."""
    for idx, stmt in enumerate(stmts):
        if isinstance(stmt, ast.Do):
            yield stmts[:idx] + stmt.body + stmts[idx + 1:]
            for body in _flatten_in_seq(stmt.body):
                yield stmts[:idx] + (
                    ast.Do(var=stmt.var, lo=stmt.lo, hi=stmt.hi,
                           step=stmt.step, body=body, label=stmt.label,
                           line=stmt.line),
                ) + stmts[idx + 1:]
        elif isinstance(stmt, ast.If):
            yield stmts[:idx] + stmt.then_body + stmt.else_body \
                + stmts[idx + 1:]


def _referenced_names(program: ast.Program) -> set:
    names = set()
    for stmt in ast.walk_stmts(program.body):
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.ArrayRef):
                    names.add(node.name)
                elif isinstance(node, ast.Var):
                    names.add(node.name)
    return names


def prune_declarations(program: ast.Program) -> ast.Program:
    """Drop declared *arrays* the body never references (scalars and
    PARAMETER constants are kept: they may size the remaining arrays)."""
    used = _referenced_names(program)
    declarations: List[ast.Declaration] = []
    for decl in program.declarations:
        if isinstance(decl, (ast.TypeDecl, ast.DimensionDecl)):
            entities = tuple(
                e for e in decl.entities if not e.dims or e.name in used
            )
            if not entities:
                continue
            if isinstance(decl, ast.TypeDecl):
                decl = ast.TypeDecl(
                    dtype=decl.dtype, entities=entities, line=decl.line
                )
            else:
                decl = ast.DimensionDecl(entities=entities, line=decl.line)
        declarations.append(decl)
    return ast.Program(
        name=program.name,
        declarations=tuple(declarations),
        body=program.body,
    )


def _with_body(
    program: ast.Program, body: Tuple[ast.Stmt, ...]
) -> ast.Program:
    return ast.Program(
        name=program.name, declarations=program.declarations, body=body
    )


def minimize_program(
    program: ast.Program, predicate: Predicate
) -> ast.Program:
    """Greedily shrink ``program`` while ``predicate`` keeps returning
    True, within ``MAX_PREDICATE_CALLS`` calls of it.  Returns the
    smallest variant found (possibly the input)."""
    calls = 0

    def holds(candidate: ast.Program) -> bool:
        nonlocal calls
        if calls >= MAX_PREDICATE_CALLS:
            return False
        calls += 1
        try:
            return bool(predicate(candidate))
        except Exception:
            return False

    if not holds(program):  # the input itself must reproduce
        return program

    current = program
    progress = True
    while progress and calls < MAX_PREDICATE_CALLS:
        progress = False
        for body in _delete_in_seq(current.body):
            candidate = _with_body(current, body)
            if holds(candidate):
                current = candidate
                progress = True
                break
        if progress:
            continue
        for body in _flatten_in_seq(current.body):
            candidate = _with_body(current, body)
            if holds(candidate):
                current = candidate
                progress = True
                break

    pruned = prune_declarations(current)
    if pruned != current and holds(pruned):
        current = pruned
    return current
