"""Metamorphic invariants over the whole layout pipeline.

Each check runs the full assistant on a program and on a semantically
related transform of it, then asserts a relation the paper's framework
must satisfy:

* **array renaming** — a bijective renaming of the arrays changes nothing
  the cost model can see: the per-phase cost *multisets* and the selected
  optimum are preserved (candidate enumeration order may permute with the
  names, so the comparison is order-free; the deliberate ``1e-9``
  position-dependent tie-break factor in the layout graph bounds the
  allowed drift);
* **induction-variable relabeling** (phase-order preserving) — renaming
  loop variables leaves every cost bitwise identical;
* **trip-count scaling** — scaling the problem size ``n`` (which scales
  every phase loop's trip count and every array extent together) never
  *decreases* any phase's cheapest cost nor the selected optimum, except
  where a phase pins two different constant subscripts in what may be
  one distributed dimension: whether those share a processor depends
  on the block size, hence on ``n``;
* **unused array** — declaring an extra array that no statement references
  (and that does not enlarge the program template) leaves the selection
  and its objective bitwise identical.

All checks return ``None`` on success or a human-readable violation
description, so the fuzz runner can treat them uniformly with the
ILP-vs-oracle divergences.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

from ..frontend import ast
from ..frontend.printer import format_program
from ..tool.assistant import AssistantConfig, AssistantResult, run_assistant

#: relative tolerance for order-free comparisons (tie-break factor drift)
_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# AST transforms
# ---------------------------------------------------------------------------


def _rename_expr(expr: ast.Expr, mapping: Dict[str, str]) -> ast.Expr:
    if isinstance(expr, ast.Var):
        return ast.Var(mapping.get(expr.name, expr.name))
    if isinstance(expr, ast.ArrayRef):
        return ast.ArrayRef(
            mapping.get(expr.name, expr.name),
            tuple(_rename_expr(s, mapping) for s in expr.subscripts),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rename_expr(expr.operand, mapping))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            expr.op,
            _rename_expr(expr.left, mapping),
            _rename_expr(expr.right, mapping),
        )
    if isinstance(expr, ast.Call):
        return ast.Call(
            expr.name, tuple(_rename_expr(a, mapping) for a in expr.args)
        )
    return expr


def _rename_stmt(stmt: ast.Stmt, mapping: Dict[str, str]) -> ast.Stmt:
    if isinstance(stmt, ast.Assign):
        return ast.Assign(
            target=_rename_expr(stmt.target, mapping),
            expr=_rename_expr(stmt.expr, mapping),
            line=stmt.line,
        )
    if isinstance(stmt, ast.Do):
        return ast.Do(
            var=mapping.get(stmt.var, stmt.var),
            lo=_rename_expr(stmt.lo, mapping),
            hi=_rename_expr(stmt.hi, mapping),
            step=(
                _rename_expr(stmt.step, mapping)
                if stmt.step is not None else None
            ),
            body=tuple(_rename_stmt(s, mapping) for s in stmt.body),
            label=stmt.label,
            line=stmt.line,
        )
    if isinstance(stmt, ast.If):
        return ast.If(
            cond=_rename_expr(stmt.cond, mapping),
            then_body=tuple(
                _rename_stmt(s, mapping) for s in stmt.then_body
            ),
            else_body=tuple(
                _rename_stmt(s, mapping) for s in stmt.else_body
            ),
            line=stmt.line,
        )
    return stmt


def _rename_declaration(
    decl: ast.Declaration, mapping: Dict[str, str]
) -> ast.Declaration:
    def rename_entity(entity: ast.Entity) -> ast.Entity:
        return ast.Entity(
            name=mapping.get(entity.name, entity.name),
            dims=tuple(
                ast.DimSpec(
                    lo=_rename_expr(d.lo, mapping),
                    hi=_rename_expr(d.hi, mapping),
                )
                for d in entity.dims
            ),
        )

    if isinstance(decl, (ast.TypeDecl,)):
        return ast.TypeDecl(
            dtype=decl.dtype,
            entities=tuple(rename_entity(e) for e in decl.entities),
            line=decl.line,
        )
    if isinstance(decl, ast.DimensionDecl):
        return ast.DimensionDecl(
            entities=tuple(rename_entity(e) for e in decl.entities),
            line=decl.line,
        )
    if isinstance(decl, ast.ParameterDecl):
        return ast.ParameterDecl(
            bindings=tuple(
                (mapping.get(name, name), _rename_expr(expr, mapping))
                for name, expr in decl.bindings
            ),
            line=decl.line,
        )
    return decl


def rename_identifiers(
    program: ast.Program, mapping: Dict[str, str]
) -> ast.Program:
    """Rebuild ``program`` with a consistent identifier renaming."""
    return ast.Program(
        name=program.name,
        declarations=tuple(
            _rename_declaration(d, mapping) for d in program.declarations
        ),
        body=tuple(_rename_stmt(s, mapping) for s in program.body),
    )


def declared_arrays(program: ast.Program) -> List[str]:
    """Names declared with a dimension spec, in declaration order."""
    out: List[str] = []
    for decl in program.declarations:
        if isinstance(decl, (ast.TypeDecl, ast.DimensionDecl)):
            for entity in decl.entities:
                if entity.dims and entity.name not in out:
                    out.append(entity.name)
    return out


def scale_size_parameter(
    program: ast.Program, factor: int, name: str = "n"
) -> ast.Program:
    """Multiply the integer PARAMETER ``name`` (the problem size that
    drives every trip count and array extent) by ``factor``."""
    declarations = []
    for decl in program.declarations:
        if isinstance(decl, ast.ParameterDecl):
            bindings = tuple(
                (
                    bname,
                    ast.IntLit(expr.value * factor)
                    if bname == name and isinstance(expr, ast.IntLit)
                    else expr,
                )
                for bname, expr in decl.bindings
            )
            decl = ast.ParameterDecl(bindings=bindings, line=decl.line)
        declarations.append(decl)
    return ast.Program(
        name=program.name,
        declarations=tuple(declarations),
        body=program.body,
    )


def add_unused_array(
    program: ast.Program, name: str = "zunused", dtype: str = "real"
) -> ast.Program:
    """Append a rank-1 array sized by the existing ``n`` parameter that no
    statement references.  By construction it cannot enlarge the program
    template (rank 1, extent n <= the template's first extent)."""
    extra = ast.TypeDecl(
        dtype=dtype,
        entities=(
            ast.Entity(
                name=name,
                dims=(ast.DimSpec(lo=ast.IntLit(1), hi=ast.Var("n")),),
            ),
        ),
    )
    return ast.Program(
        name=program.name,
        declarations=program.declarations + (extra,),
        body=program.body,
    )


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------


Runner = Callable[[str, AssistantConfig], AssistantResult]


def _multiset_close(a: List[float], b: List[float]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(sorted(a), sorted(b)):
        if abs(x - y) > _REL_TOL * max(abs(x), abs(y), 1.0):
            return False
    return True


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1.0)


def check_array_renaming(
    program: ast.Program,
    config: AssistantConfig,
    base: Optional[AssistantResult] = None,
    runner: Runner = run_assistant,
) -> Optional[str]:
    """Renaming arrays must preserve cost multisets and the optimum."""
    arrays = declared_arrays(program)
    mapping = {name: f"z{name}ren" for name in arrays}
    renamed = rename_identifiers(program, mapping)
    base = base or runner(format_program(program), config)
    other = runner(format_program(renamed), config)
    if len(base.partition.phases) != len(other.partition.phases):
        return (
            "array renaming changed the phase count: "
            f"{len(base.partition.phases)} != {len(other.partition.phases)}"
        )
    for idx in base.graph.node_costs:
        if not _multiset_close(
            base.graph.node_costs[idx], other.graph.node_costs[idx]
        ):
            return (
                f"array renaming changed phase {idx} cost multiset: "
                f"{sorted(base.graph.node_costs[idx])} != "
                f"{sorted(other.graph.node_costs[idx])}"
            )
    if not _close(base.selection.objective, other.selection.objective):
        return (
            "array renaming changed the optimum: "
            f"{base.selection.objective!r} != "
            f"{other.selection.objective!r}"
        )
    return None


def check_loop_var_relabeling(
    program: ast.Program,
    config: AssistantConfig,
    base: Optional[AssistantResult] = None,
    runner: Runner = run_assistant,
) -> Optional[str]:
    """Renaming induction variables (a phase-order-preserving relabeling)
    must leave every cost bitwise identical."""
    loop_vars = sorted({
        stmt.var
        for stmt in ast.walk_stmts(program.body)
        if isinstance(stmt, ast.Do)
    })
    mapping = {var: f"{var}{var}x" for var in loop_vars}
    relabeled = rename_identifiers(program, mapping)
    base = base or runner(format_program(program), config)
    other = runner(format_program(relabeled), config)
    if base.graph.node_costs != other.graph.node_costs:
        return (
            "loop-variable relabeling changed node costs: "
            f"{base.graph.node_costs} != {other.graph.node_costs}"
        )
    if base.selection.objective != other.selection.objective:
        return (
            "loop-variable relabeling changed the optimum: "
            f"{base.selection.objective!r} != "
            f"{other.selection.objective!r}"
        )
    return None


def pins_two_constant_subscripts(phase) -> bool:
    """Does the phase reference two different loop-invariant subscripts
    that can meet in one distributed dimension?  Whether two fixed rows
    of a BLOCK-distributed dimension share a processor depends on the
    block size — rows 1 and 3 do not at n=8 on 4 processors, and do at
    n=16 — so a larger ``n`` can remove the communication between them,
    and the phase's cost need not grow with ``n``.  Two dimensions of
    one array never share a template dimension; any two of different
    arrays may, under some alignment."""
    pinned = {
        (sub.const, access.array, dim)
        for access in phase.accesses
        for dim, sub in enumerate(access.subscripts)
        if sub.is_constant()
    }
    return any(
        const != other and (array != other_array or dim == other_dim)
        for (const, array, dim), (other, other_array, other_dim)
        in combinations(pinned, 2)
    )


def check_trip_count_scaling(
    program: ast.Program,
    config: AssistantConfig,
    base: Optional[AssistantResult] = None,
    runner: Runner = run_assistant,
    factor: int = 2,
) -> Optional[str]:
    """Scaling every trip count (via the size parameter) must not make any
    phase cheaper, nor the selected optimum.  A phase that
    :func:`pins_two_constant_subscripts` is exempt, and with it the
    optimum it is part of."""
    scaled = scale_size_parameter(program, factor)
    base = base or runner(format_program(program), config)
    other = runner(format_program(scaled), config)
    if len(base.partition.phases) != len(other.partition.phases):
        return (
            "size scaling changed the phase count: "
            f"{len(base.partition.phases)} != {len(other.partition.phases)}"
        )
    slack = _REL_TOL * max(abs(base.selection.objective), 1.0)
    exempt = {
        phase.index for phase in base.partition.phases
        if pins_two_constant_subscripts(phase)
    }
    for idx in base.graph.node_costs:
        if idx in exempt:
            continue
        lo_before = min(base.graph.node_costs[idx])
        lo_after = min(other.graph.node_costs[idx])
        if lo_after < lo_before - slack:
            return (
                f"scaling n by {factor} made phase {idx} cheaper: "
                f"{lo_before!r} -> {lo_after!r}"
            )
    if not exempt \
            and other.selection.objective < base.selection.objective - slack:
        return (
            f"scaling n by {factor} lowered the optimum: "
            f"{base.selection.objective!r} -> "
            f"{other.selection.objective!r}"
        )
    return None


def check_unused_array(
    program: ast.Program,
    config: AssistantConfig,
    base: Optional[AssistantResult] = None,
    runner: Runner = run_assistant,
) -> Optional[str]:
    """An extra never-referenced array must change nothing at all."""
    extended = add_unused_array(program)
    base = base or runner(format_program(program), config)
    other = runner(format_program(extended), config)
    if base.selection.selection != other.selection.selection:
        return (
            "unused array changed the selection: "
            f"{base.selection.selection} != {other.selection.selection}"
        )
    if base.selection.objective != other.selection.objective:
        return (
            "unused array changed the optimum: "
            f"{base.selection.objective!r} != "
            f"{other.selection.objective!r}"
        )
    if base.graph.node_costs != other.graph.node_costs:
        return "unused array changed node costs"
    return None


#: name -> check, in the order the fuzz runner applies them
METAMORPHIC_CHECKS: Dict[str, Callable[..., Optional[str]]] = {
    "rename-arrays": check_array_renaming,
    "relabel-loop-vars": check_loop_var_relabeling,
    "scale-trip-counts": check_trip_count_scaling,
    "unused-array": check_unused_array,
}
