"""Seeded random program generator over the frontend AST.

Emits affine loop nests in the exact Fortran-77 subset the parser accepts:
a configurable number of arrays (with configurable ranks), phase loops
(perfect nests whose induction variables index the arrays), optional
control loops (time loops whose variable never appears in a subscript),
and optional IF branches around phases.  Every generated
:class:`~repro.frontend.ast.Program` is printable with the unparser and
parses back to the same tree (modulo source positions), which makes the
generator double as the driver for the printer round-trip property tests.

The grammar (documented in DESIGN.md §8)::

    program    := decls phase-item+
    phase-item := phase | control(phase-item+) | branch(phase-item+)
    phase      := nest over fresh induction vars i1..ir (r = nest depth)
                  of 1..max_stmts assignments
    assign     := A(subs) = rhs
    subs       := pattern drawn per dimension: v | v+c | v-c | n-v+1 | c
    rhs        := sum/product of 0..2 array reads and a literal

All randomness flows through one :class:`random.Random` seeded explicitly,
so a (seed, config) pair is a complete reproducer for any case the fuzzer
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..frontend import ast
from ..frontend.printer import format_program

#: array-name pool (kept clear of induction vars and the size parameter)
_ARRAY_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
#: induction-variable pool, indexed by nest depth
_LOOP_VARS = ("i", "j", "k", "l", "m")
#: control-loop (time-loop) variables — never used in subscripts
_CONTROL_VARS = ("t", "t2", "t3")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random program generator.

    The defaults match the exhaustive-oracle scope (small instances): at
    most 3 arrays of rank <= 3 over at most 4 phases, which keeps both
    brute-force oracles well inside their enumeration limits.
    """

    max_arrays: int = 3
    max_rank: int = 3
    max_phases: int = 4
    size: int = 8  #: declared extent n of every array dimension
    max_stmts_per_phase: int = 2
    max_shift: int = 2  #: largest |c| in v+c / v-c subscript patterns
    p_control_loop: float = 0.25  #: chance of wrapping a run of phases
    p_branch: float = 0.2  #: chance of guarding a run of phases with IF
    p_constant_subscript: float = 0.1
    p_reversal: float = 0.1  #: chance of an n-v+1 subscript
    p_transpose: float = 0.35  #: chance of permuting read index order
    dtype: str = "real"

    def small(self) -> "GeneratorConfig":
        """Clamp to the oracle-checkable regime (<=3/<=3/<=4)."""
        return replace(
            self,
            max_arrays=min(self.max_arrays, 3),
            max_rank=min(self.max_rank, 3),
            max_phases=min(self.max_phases, 4),
        )


@dataclass
class GeneratedCase:
    """A generated program plus everything needed to reproduce it."""

    seed: int
    config: GeneratorConfig
    program: ast.Program
    source: str = field(default="")

    def __post_init__(self) -> None:
        if not self.source:
            self.source = format_program(self.program)


def _subscript(
    rng: random.Random,
    var: str,
    config: GeneratorConfig,
) -> ast.Expr:
    """One affine subscript expression over ``var`` (or a constant)."""
    roll = rng.random()
    if roll < config.p_constant_subscript:
        return ast.IntLit(rng.randint(1, config.size))
    if roll < config.p_constant_subscript + config.p_reversal:
        # n - v + 1 : reversal, stays affine with coefficient -1
        return ast.BinOp(
            "+",
            ast.BinOp("-", ast.Var("n"), ast.Var(var)),
            ast.IntLit(1),
        )
    shift = rng.randint(-config.max_shift, config.max_shift)
    if shift == 0:
        return ast.Var(var)
    op = "+" if shift > 0 else "-"
    return ast.BinOp(op, ast.Var(var), ast.IntLit(abs(shift)))


def _array_ref(
    rng: random.Random,
    array: str,
    rank: int,
    loop_vars: Tuple[str, ...],
    config: GeneratorConfig,
    transpose_ok: bool,
) -> ast.ArrayRef:
    """Reference ``array`` using the innermost ``rank`` loop variables
    (optionally permuted, modelling transposed accesses)."""
    vars_for_dims = list(loop_vars[-rank:]) if rank <= len(loop_vars) else (
        list(loop_vars) + [loop_vars[-1]] * (rank - len(loop_vars))
    )
    if transpose_ok and len(vars_for_dims) > 1 and (
        rng.random() < config.p_transpose
    ):
        rng.shuffle(vars_for_dims)
    subs = tuple(
        _subscript(rng, v, config) for v in vars_for_dims
    )
    return ast.ArrayRef(array, subs)


def _rhs(
    rng: random.Random,
    arrays: Dict[str, int],
    target: str,
    loop_vars: Tuple[str, ...],
    config: GeneratorConfig,
) -> ast.Expr:
    """Right-hand side: a literal plus up to two array reads."""
    expr: ast.Expr = ast.RealLit(float(rng.randint(1, 9)))
    names = sorted(arrays)
    for _ in range(rng.randint(0, 2)):
        array = rng.choice(names)
        ref = _array_ref(
            rng, array, arrays[array], loop_vars, config, transpose_ok=True
        )
        op = rng.choice(("+", "*"))
        expr = ast.BinOp(op, ref, expr)
    return expr


def _phase(
    rng: random.Random,
    arrays: Dict[str, int],
    config: GeneratorConfig,
) -> ast.Stmt:
    """One phase: a loop nest whose body assigns into a random array."""
    target = rng.choice(sorted(arrays))
    rank = arrays[target]
    depth = max(
        rank,
        rng.randint(1, min(config.max_rank, len(_LOOP_VARS))),
    )
    depth = min(depth, len(_LOOP_VARS))
    loop_vars = tuple(_LOOP_VARS[:depth])

    body: List[ast.Stmt] = []
    for _ in range(rng.randint(1, config.max_stmts_per_phase)):
        tgt = rng.choice(sorted(arrays))
        lhs = _array_ref(
            rng, tgt, arrays[tgt], loop_vars, config, transpose_ok=False
        )
        body.append(
            ast.Assign(target=lhs, expr=_rhs(
                rng, arrays, tgt, loop_vars, config
            ))
        )

    nest: Tuple[ast.Stmt, ...] = tuple(body)
    for var in reversed(loop_vars):
        nest = (
            ast.Do(
                var=var,
                lo=ast.IntLit(1),
                hi=ast.Var("n"),
                step=None,
                body=nest,
            ),
        )
    return nest[0]


def _structure(
    rng: random.Random,
    phases: List[ast.Stmt],
    config: GeneratorConfig,
) -> Tuple[ast.Stmt, ...]:
    """Arrange phase loops into a body, optionally nesting runs of them
    inside control loops or IF branches."""
    if not phases:
        return ()
    out: List[ast.Stmt] = []
    idx = 0
    while idx < len(phases):
        run = rng.randint(1, len(phases) - idx)
        chunk = phases[idx:idx + run]
        idx += run
        roll = rng.random()
        if (
            roll < config.p_control_loop
            and len(chunk) >= 1
        ):
            out.append(
                ast.Do(
                    var=_CONTROL_VARS[0],
                    lo=ast.IntLit(1),
                    hi=ast.IntLit(rng.randint(2, 4)),
                    step=None,
                    body=tuple(chunk),
                )
            )
        elif roll < config.p_control_loop + config.p_branch:
            out.append(
                ast.If(
                    cond=ast.BinOp(">", ast.Var("s"), ast.RealLit(0.0)),
                    then_body=tuple(chunk),
                )
            )
        else:
            out.extend(chunk)
    return tuple(out)


def generate_program(
    seed: int, config: Optional[GeneratorConfig] = None
) -> GeneratedCase:
    """Generate one random program, deterministically from ``seed``."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)

    n_arrays = rng.randint(1, config.max_arrays)
    arrays: Dict[str, int] = {}
    for name in _ARRAY_NAMES[:n_arrays]:
        arrays[name] = rng.randint(1, config.max_rank)
    # At least one array of maximal generated rank drives the template.

    n_phases = rng.randint(1, config.max_phases)
    phases = [_phase(rng, arrays, config) for _ in range(n_phases)]
    body = _structure(rng, phases, config)

    entities = tuple(
        ast.Entity(
            name=name,
            dims=tuple(
                ast.DimSpec(lo=ast.IntLit(1), hi=ast.Var("n"))
                for _ in range(rank)
            ),
        )
        for name, rank in sorted(arrays.items())
    )
    scalar_ints = tuple(
        ast.Entity(name=v)
        for v in (_LOOP_VARS[: min(config.max_rank, len(_LOOP_VARS))]
                  + _CONTROL_VARS)
    )
    declarations: Tuple[ast.Declaration, ...] = (
        ast.TypeDecl(dtype="integer", entities=(ast.Entity("n"),)),
        ast.ParameterDecl(bindings=(("n", ast.IntLit(config.size)),)),
        ast.TypeDecl(dtype="integer", entities=scalar_ints),
        ast.TypeDecl(dtype=config.dtype, entities=entities),
        ast.TypeDecl(dtype=config.dtype, entities=(ast.Entity("s"),)),
    )
    program = ast.Program(
        name=f"fuzz{seed % 1_000_000}",
        declarations=declarations,
        body=body,
    )
    return GeneratedCase(seed=seed, config=config, program=program)


# ---------------------------------------------------------------------------
# Normalization (for round-trip comparison)
# ---------------------------------------------------------------------------


def _strip_stmt(stmt: ast.Stmt) -> ast.Stmt:
    if isinstance(stmt, ast.Assign):
        return ast.Assign(target=stmt.target, expr=stmt.expr)
    if isinstance(stmt, ast.Do):
        body = tuple(_strip_stmt(s) for s in stmt.body)
        # Printing normalizes labelled loops to ENDDO form and drops the
        # label-carrying trailing CONTINUE.
        if stmt.label is not None and body and isinstance(
            body[-1], ast.Continue
        ):
            body = body[:-1]
        return ast.Do(
            var=stmt.var, lo=stmt.lo, hi=stmt.hi, step=stmt.step,
            body=body, label=None,
        )
    if isinstance(stmt, ast.If):
        return ast.If(
            cond=stmt.cond,
            then_body=tuple(_strip_stmt(s) for s in stmt.then_body),
            else_body=tuple(_strip_stmt(s) for s in stmt.else_body),
        )
    if isinstance(stmt, ast.Continue):
        return ast.Continue()
    if isinstance(stmt, ast.CallStmt):
        return ast.CallStmt(name=stmt.name, args=stmt.args)
    raise TypeError(f"cannot normalize {type(stmt).__name__}")


def _strip_declaration(decl: ast.Declaration) -> ast.Declaration:
    if isinstance(decl, ast.TypeDecl):
        return ast.TypeDecl(dtype=decl.dtype, entities=decl.entities)
    if isinstance(decl, ast.DimensionDecl):
        return ast.DimensionDecl(entities=decl.entities)
    if isinstance(decl, ast.ParameterDecl):
        return ast.ParameterDecl(bindings=decl.bindings)
    raise TypeError(f"cannot normalize {type(decl).__name__}")


def normalize_program(program: ast.Program) -> ast.Program:
    """Erase source positions (and label-form artifacts) so structurally
    identical programs compare equal: ``parse(print(p))`` must equal
    ``normalize_program(p)`` for every printable ``p``."""
    return ast.Program(
        name=program.name,
        declarations=tuple(
            _strip_declaration(d) for d in program.declarations
        ),
        body=tuple(_strip_stmt(s) for s in program.body),
    )
