"""CAG edge-weight computation (paper Section 3.1).

Assumes an advanced compilation system that caches communicated values and
maps computation by the owner-computes rule on a MIMD machine.  The model
is *pessimistic*: every unsatisfied alignment preference is assumed to cost
communication.

For each assignment ``L(...) = ... R(...) ...`` whose left-hand side is an
array element, every right-hand-side reference of a *different* array
induces directed preferences R→L between dimension pairs indexed by the
same induction variable.  The preference cost models communication volume:
the byte size of the array at the edge's **source** (the communicated
array under owner-computes).  Re-occurring preferences follow the caching
rule implemented in :meth:`repro.alignment.cag.CAG.add_preference`: same
direction → cached/no change; opposite direction → add cost and reverse.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.phases import Phase
from ..analysis.references import ArrayAccess
from ..frontend.symbols import ArraySymbol, SymbolTable
from ..obs import tracing
from .cag import CAG


def _matched_dims(
    write: ArrayAccess, read: ArrayAccess
) -> List[Tuple[int, int]]:
    """Dimension pairs (write_dim, read_dim) indexed by the same unique
    induction variable."""
    pairs: List[Tuple[int, int]] = []
    for dl in range(write.rank):
        var = write.subscripts[dl].single_index_var()
        if var is None:
            continue
        for dr in range(read.rank):
            if read.subscripts[dr].single_index_var() == var:
                pairs.append((dl, dr))
    return pairs


def communication_cost(symbol: ArraySymbol) -> float:
    """Volume model: the size in bytes of the communicated array."""
    return float(symbol.total_bytes)


def build_phase_cag(phase: Phase, symbols: SymbolTable) -> CAG:
    """Build the weighted, undirected CAG of one phase.

    Every array referenced in the phase contributes its nodes even when it
    has no alignment preference (isolated nodes default to canonical
    orientation later).
    """
    if not tracing.active():
        return _build_phase_cag(phase, symbols)
    with tracing.span("cag.build", phase=phase.index) as sp:
        cag = _build_phase_cag(phase, symbols)
        sp.set_attr("nodes", len(cag.nodes))
        sp.set_attr("edges", len(cag.weights))
        sp.set_attr("total_weight", cag.total_weight())
        if tracing.detail_active():
            for (a, b), weight in sorted(cag.weights.items()):
                tracing.add_event(
                    "cag.edge",
                    phase=phase.index,
                    src=f"{a[0]}[{a[1]}]",
                    dst=f"{b[0]}[{b[1]}]",
                    weight=weight,
                )
    return cag


def _build_phase_cag(phase: Phase, symbols: SymbolTable) -> CAG:
    cag = CAG()
    for array in phase.arrays:
        symbol = symbols.get(array)
        if isinstance(symbol, ArraySymbol):
            cag.add_array(array, symbol.rank)

    # Statement by statement, so writes meet their own reads.
    for accesses in phase.statements:
        writes = [a for a in accesses if a.is_write]
        reads = [a for a in accesses if not a.is_write]
        for write in writes:
            for read in reads:
                if read.array == write.array:
                    continue
                read_symbol = symbols.get(read.array)
                if not isinstance(read_symbol, ArraySymbol):
                    continue
                cost = communication_cost(read_symbol)
                for dl, dr in _matched_dims(write, read):
                    src = (read.array, dr)  # owner-computes: value flows
                    dst = (write.array, dl)  # from the read to the write
                    cag.add_preference(src, dst, cost)
    return cag.undirected()
