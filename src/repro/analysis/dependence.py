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
from typing import Dict, List, Optional, Tuple

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
    the same element, and also when the subscript pattern is not uniform:
    no caller tests such a pair separately, so a non-uniform pair counts
    as no dependence.
    """
    if write.array != other.array or write.rank != other.rank:
        return []
    distances: Dict[str, Tuple[Fraction, int]] = {}
    for dim in range(write.rank):
        ws, os_ = write.subscripts[dim], other.subscripts[dim]
        if not (ws.affine and os_.affine):
            return []
        if ws.coeffs != os_.coeffs:
            return []  # non-uniform: reported as no dependence
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
