"""Data dependence analysis for phase classification.

The execution model (paper Section 2.3 / 3) classifies each phase under a
candidate layout as *loosely synchronous*, *pipelined*, *sequentialized*,
or a *reduction*, based on whether a loop-carried flow dependence crosses
the distributed dimension.  The tests here are the classic ZIV / strong-SIV
tests specialized to *uniform* dependences (equal index variables and
coefficients per dimension, constant offset differences) — exactly the
pattern regular dense kernels exhibit.

Distances are normalized to **iteration counts of the carrying loop**
(element distance divided by ``coefficient * step``), so downward-counting
backward sweeps (``DO i = n-1, 1, -1``) report positive flow distances just
like forward sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..frontend import ast
from .phases import Phase
from .references import ArrayAccess


@dataclass(frozen=True)
class Dependence:
    """A loop-carried dependence between two accesses of one array."""

    array: str
    kind: str  # "flow" | "anti" | "output"
    carrier_var: str  # loop variable carrying the dependence
    distance: int  # positive iteration distance of the carrier loop
    dim: int  # array dimension in which the carried offset occurs
    source: ArrayAccess  # earlier access (the write, for flow)
    sink: ArrayAccess  # later access


def _step_for(access: ArrayAccess, var: str) -> Optional[int]:
    for loop in access.loops:
        if loop.var == var:
            return loop.step
    return None


def _pair_dependences(
    write: ArrayAccess, other: ArrayAccess
) -> List[Dependence]:
    """Dependences between a write and another access (read or write) of
    the same array, assuming uniform subscripts.

    Returns one :class:`Dependence` per loop variable with a nonzero
    normalized distance.  Returns [] when the accesses provably never touch
    the same element, or when the subscript pattern is not uniform (the
    callers treat non-uniform pairs via :func:`is_uniform_pair`).
    """
    if write.array != other.array or write.rank != other.rank:
        return []
    distances: Dict[str, Tuple[Fraction, int]] = {}
    for dim in range(write.rank):
        ws, os_ = write.subscripts[dim], other.subscripts[dim]
        if not (ws.affine and os_.affine):
            return []
        if ws.coeffs != os_.coeffs:
            return []  # non-uniform; handled separately
        if not ws.coeffs:
            # ZIV: both constant.
            if ws.const != os_.const:
                return []  # provably independent in this dimension
            continue
        if len(ws.coeffs) != 1:
            return []  # coupled subscript; out of scope for uniform test
        var, coeff = ws.coeffs[0]
        step = _step_for(write, var)
        if step is None or step == 0:
            # Not a loop variable of the write (e.g. symbolic scalar):
            # require identical subscripts, else give up on this pair.
            if ws.const != os_.const:
                return []
            continue
        # Element written at iter k: coeff*(lo + k*step) + w.const; read at
        # iter k': same element  =>  k' - k = (w.const - o.const)/(coeff*step)
        delta = Fraction(ws.const - os_.const, coeff * step)
        if delta.denominator != 1:
            return []  # offsets never coincide on the iteration lattice
        if var in distances and distances[var][0] != delta:
            return []  # inconsistent; treat as independent (uniform only)
        distances[var] = (delta, dim)

    deps: List[Dependence] = []
    for var, (delta, dim) in distances.items():
        if delta == 0:
            continue
        if delta > 0:
            kind = "flow" if not other.is_write else "output"
            deps.append(
                Dependence(
                    array=write.array,
                    kind=kind,
                    carrier_var=var,
                    distance=int(delta),
                    dim=dim,
                    source=write,
                    sink=other,
                )
            )
        else:
            kind = "anti" if not other.is_write else "output"
            deps.append(
                Dependence(
                    array=write.array,
                    kind=kind,
                    carrier_var=var,
                    distance=int(-delta),
                    dim=dim,
                    source=other,
                    sink=write,
                )
            )
    return deps


def is_uniform_pair(a: ArrayAccess, b: ArrayAccess) -> bool:
    """True when the two accesses have dimension-wise equal index variables
    and coefficients (the uniform-dependence precondition)."""
    if a.rank != b.rank:
        return False
    for dim in range(a.rank):
        sa, sb = a.subscripts[dim], b.subscripts[dim]
        if not (sa.affine and sb.affine):
            return False
        if sa.coeffs != sb.coeffs:
            return False
    return True


def phase_dependences(phase: Phase) -> List[Dependence]:
    """All uniform loop-carried dependences inside ``phase``."""
    by_array: Dict[str, List[ArrayAccess]] = {}
    for acc in phase.accesses:
        by_array.setdefault(acc.array, []).append(acc)
    deps: List[Dependence] = []
    for accesses in by_array.values():
        writes = [a for a in accesses if a.is_write]
        for write in writes:
            for other in accesses:
                if other is write:
                    continue
                deps.extend(_pair_dependences(write, other))
    return deps


def flow_dependences_on_var(phase: Phase, var: str) -> List[Dependence]:
    """Flow dependences carried by loop variable ``var`` in ``phase``."""
    return [
        d
        for d in phase_dependences(phase)
        if d.kind == "flow" and d.carrier_var == var
    ]


def carried_flow_vars(phase: Phase) -> Tuple[str, ...]:
    """Loop variables that carry at least one flow dependence, in a stable
    order."""
    seen: Dict[str, None] = {}
    for dep in phase_dependences(phase):
        if dep.kind == "flow":
            seen.setdefault(dep.carrier_var, None)
    return tuple(seen)


def scalar_reductions(phase: Phase) -> List[ast.Assign]:
    """Assignments reducing array data into a scalar (``s = s + a(i,j)``,
    ``rmax = max(rmax, ...)``): scalar target that also appears on the
    right-hand side alongside at least one array reference."""
    out: List[ast.Assign] = []
    seen: set = set()
    for acc in phase.accesses:
        stmt = acc.stmt
        if id(stmt) in seen or not isinstance(stmt, ast.Assign):
            continue
        seen.add(id(stmt))
        if not isinstance(stmt.target, ast.Var):
            continue
        rhs_vars = {
            n.name for n in ast.walk_expr(stmt.expr) if isinstance(n, ast.Var)
        }
        rhs_arrays = bool(ast.expr_array_refs(stmt.expr))
        if stmt.target.name in rhs_vars and rhs_arrays:
            out.append(stmt)
    return out


def reduction_vars(phase: Phase) -> Tuple[str, ...]:
    """Loop variables the phase reduces over.

    A loop variable ``v`` is a reduction variable when some assignment both
    reads and writes the same location independent of ``v`` (scalar
    accumulators, or array accumulators not indexed by ``v``) while its
    right-hand side reads data indexed by ``v``.
    """
    reducing: Dict[str, None] = {}
    writes = [a for a in phase.accesses if a.is_write]
    for write in writes:
        loop_vars = {loop.var for loop in write.loops}
        indexed = set()
        for sub in write.subscripts:
            indexed.update(sub.variables)
        free = loop_vars - indexed
        if not free:
            continue
        # The same statement must read data indexed by the free variable
        # (otherwise it is plain redundant-store code, not a reduction).
        for acc in phase.accesses:
            if acc.stmt is not write.stmt or acc.is_write:
                continue
            read_vars = set()
            for sub in acc.subscripts:
                read_vars.update(sub.variables)
            for var in free & read_vars:
                reducing.setdefault(var, None)
    return tuple(reducing)
