"""Program partitioning into *phases* (paper Section 2.1).

A phase is the outermost loop in a loop nest such that the loop defines an
induction variable occurring in a subscript expression of an array reference
in the loop body.  Loops that fail the test (e.g. time-stepping loops) are
*control loops*: the partitioner descends into them and records their trip
counts so phase execution frequencies are known.  IF statements at control
level become branches with (guessed or user-supplied) probabilities.

The result is a structure tree (:class:`Seq` / :class:`ControlLoop` /
:class:`Branch` / :class:`PhaseItem` / :class:`ScalarItem`) from which
:mod:`repro.analysis.pcfg` builds the phase control flow graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple, Union

from ..frontend import ast
from ..frontend.symbols import SymbolTable
from .references import (
    ArrayAccess,
    AffineForms,
    assignment_refs,
    collect_accesses,
)

DEFAULT_BRANCH_PROBABILITY = 0.5


@dataclass(frozen=True)
class Phase:
    """One program phase: an outermost subscript-defining loop nest.

    ``arrays`` and ``statements`` are derived once, on first use; the
    phase's identity (``==``, ``hash``, ``repr``) is its four fields
    alone.
    """

    index: int
    stmt: ast.Do
    accesses: Tuple[ArrayAccess, ...]
    line: int

    @property
    def name(self) -> str:
        return f"phase{self.index}"

    @property
    def loop_var(self) -> str:
        return self.stmt.var

    @cached_property
    def arrays(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(acc.array for acc in self.accesses))

    @cached_property
    def statements(self) -> Tuple[Tuple[ArrayAccess, ...], ...]:
        """The accesses grouped by statement, statements in first-access
        order: what alignment weights and the compiler model walk."""
        by_stmt: Dict[int, List[ArrayAccess]] = {}
        for acc in self.accesses:
            by_stmt.setdefault(id(acc.stmt), []).append(acc)
        return tuple(map(tuple, by_stmt.values()))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(do {self.loop_var}, line {self.line})"


# --- structure tree --------------------------------------------------------


@dataclass(frozen=True)
class PhaseItem:
    phase: Phase


@dataclass(frozen=True)
class ScalarItem:
    """Straight-line statements between phases (boundary assignments and
    similar).  They carry no layout preference and negligible cost, but are
    kept so the PCFG faithfully reflects program order."""

    stmts: Tuple[ast.Stmt, ...]


@dataclass(frozen=True)
class ControlLoop:
    """A loop whose variable never appears in a subscript (e.g. a time
    loop): its body is a nested region executed ``trips`` times."""

    var: str
    trips: int
    body: "Seq"


@dataclass(frozen=True)
class Branch:
    """An IF at control level with branch probability ``prob`` for the
    then-side."""

    prob: float
    then_body: "Seq"
    else_body: "Seq"


StructureItem = Union[PhaseItem, ScalarItem, ControlLoop, Branch]


@dataclass(frozen=True)
class Seq:
    items: Tuple[StructureItem, ...]


@dataclass
class PhasePartition:
    """Result of program partitioning."""

    phases: List[Phase]
    structure: Seq
    branch_probability: float

    def __len__(self) -> int:
        return len(self.phases)


def partition_phases(
    program: ast.Program,
    symbols: SymbolTable,
    branch_probability: float = DEFAULT_BRANCH_PROBABILITY,
    branch_prob_overrides: Optional[Dict[int, float]] = None,
) -> PhasePartition:
    """Partition ``program`` into phases and build the structure tree.

    ``branch_prob_overrides`` maps IF-statement source lines to actual
    branch probabilities (then-side); unlisted IFs use the global guess —
    this is how the Figure 6 guessed-vs-actual experiment is driven.
    """

    overrides = branch_prob_overrides or {}

    def prob_for(stmt: ast.If) -> float:
        return overrides.get(stmt.line, branch_probability)

    phases: List[Phase] = []
    forms = AffineForms(symbols.constants)
    phase_loops: Set[int] = set()  # ids of the DOs that pass the test
    refs: Dict[int, List[Tuple[ast.ArrayRef, bool]]] = {}  # per assignment

    def scan(stmts) -> Set[str]:
        """One bottom-up pass: the variables in subscripts of the array
        references of ``stmts``.  The paper's phase test for each DO is
        whether its variable is in its body's set."""
        names: Set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                refs[id(stmt)] = assignment_refs(stmt)
                found = [ref for ref, _ in refs[id(stmt)]]
            else:
                found = [ref for expr in ast.stmt_exprs(stmt)
                         for ref in ast.expr_array_refs(expr)]
            # A reference nested in a subscript is in ``found`` itself.
            stack = [sub for ref in found for sub in ref.subscripts]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Var):
                    names.add(node.name)
                elif isinstance(node, ast.BinOp):
                    stack += (node.left, node.right)
                elif isinstance(node, ast.UnaryOp):
                    stack.append(node.operand)
                elif isinstance(node, ast.Call):
                    stack += node.args
            if isinstance(stmt, ast.Do):
                inner = scan(stmt.body)
                if stmt.var in inner:
                    phase_loops.add(id(stmt))
                names |= inner
            elif isinstance(stmt, ast.If):
                names |= scan(stmt.then_body + stmt.else_body)
        return names

    def trip_count(stmt: ast.Do) -> int:
        lo = forms[stmt.lo]
        hi = forms[stmt.hi]
        step = forms[stmt.step] if stmt.step is not None else None
        if lo.is_constant() and hi.is_constant():
            step_val = step.const if step is not None and step.is_constant() else 1
            if step_val == 0:
                return 1
            return max((hi.const - lo.const) // step_val + 1, 0)
        return 1

    def make_phase(stmt: ast.Do) -> Phase:
        accesses = collect_accesses(
            [stmt], symbols, branch_probability, branch_prob_overrides=overrides,
            refs_of=lambda assign: refs[id(assign)], forms=forms,
        )
        phase = Phase(
            index=len(phases),
            stmt=stmt,
            accesses=tuple(accesses),
            line=stmt.line,
        )
        phases.append(phase)
        return phase

    def build_seq(stmts) -> Seq:
        items: List[StructureItem] = []
        pending_scalars: List[ast.Stmt] = []

        def flush_scalars() -> None:
            if pending_scalars:
                items.append(ScalarItem(stmts=tuple(pending_scalars)))
                pending_scalars.clear()

        for stmt in stmts:
            if isinstance(stmt, ast.Do):
                flush_scalars()
                if id(stmt) in phase_loops:
                    items.append(PhaseItem(phase=make_phase(stmt)))
                else:
                    items.append(
                        ControlLoop(
                            var=stmt.var,
                            trips=trip_count(stmt),
                            body=build_seq(stmt.body),
                        )
                    )
            elif isinstance(stmt, ast.If):
                then_body = build_seq(stmt.then_body)
                else_body = build_seq(stmt.else_body)
                # An IF holding no DO is plain scalar code.
                if all(isinstance(item, ScalarItem)
                       for item in then_body.items + else_body.items):
                    pending_scalars.append(stmt)
                else:
                    flush_scalars()
                    items.append(Branch(prob_for(stmt), then_body, else_body))
            else:
                pending_scalars.append(stmt)
        flush_scalars()
        return Seq(items=tuple(items))

    scan(program.body)
    structure = build_seq(program.body)
    return PhasePartition(
        phases=phases,
        structure=structure,
        branch_probability=branch_probability,
    )
