"""Per-processor memory footprint of a layout.

The iPSC/860's nodes had single-digit megabytes of memory; whether a
problem *fits* constrains the test-case grids (the paper's larger sizes
could not run on small partitions).  This model counts each array's local
elements under its selected layout, plus the ghost/buffer overhead of the
communication the compiler model plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..distribution.layouts import DataLayout
from ..frontend.symbols import ArraySymbol, SymbolTable

#: per-node memory of the simulated iPSC/860 (8 MB, minus ~1 MB of NX/OS)
NODE_BYTES = 7 * 1024 * 1024
#: overlap areas and message buffers, as a share of the arrays' bytes
GHOST_FRACTION = 0.05


@dataclass
class MemoryReport:
    """Per-array and total local footprint of one layout."""

    per_array: Dict[str, int]
    total_bytes: int
    node_bytes: int

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.node_bytes

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        status = "fits" if self.fits else "DOES NOT FIT"
        return (
            f"{self.total_bytes / (1 << 20):.2f} MB of "
            f"{self.node_bytes / (1 << 20):.0f} MB per node ({status})"
        )


def memory_footprint(
    symbols: SymbolTable,
    layouts: Dict[int, DataLayout],
) -> MemoryReport:
    """Worst-case per-node bytes across all selected layouts.

    Each array is charged its largest local share over the phases that
    lay it out (a dynamically remapped array needs both homes'
    allocations only transiently; we charge the maximum, as the Fortran D
    runtime reused the remap buffer).  ``GHOST_FRACTION`` approximates
    overlap areas and message buffers.
    """
    per_array: Dict[str, int] = {}
    for layout in layouts.values():
        for array in layout.arrays():
            symbol = symbols.get(array)
            if not isinstance(symbol, ArraySymbol):
                continue
            local = layout.local_elements(symbol) * symbol.element_bytes
            per_array[array] = max(per_array.get(array, 0), local)
    # Arrays never laid out (not referenced in any phase) are replicated.
    for symbol in symbols.arrays():
        if symbol.name not in per_array:
            per_array[symbol.name] = symbol.total_bytes
    total = sum(per_array.values())
    total = int(total * (1.0 + GHOST_FRACTION))
    return MemoryReport(
        per_array=per_array, total_bytes=total, node_bytes=NODE_BYTES
    )
