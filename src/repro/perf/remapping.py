"""Remapping (dynamic redistribution) cost estimation.

Dynamic data layouts pay an all-to-all redistribution whenever an array's
layout changes between phases.  Which arrays change is the layout
value's own answer (:func:`repro.distribution.layouts.needs_remap`);
this module prices each of them with the *transpose* training sets
(redistributions pack strided slices, hence non-unit stride).
"""

from __future__ import annotations

from typing import Iterable, List

from ..distribution.layouts import DataLayout, needs_remap
from ..frontend.symbols import SymbolTable
from .training import TrainingDatabase


def arrays_needing_remap(
    from_layout: DataLayout,
    to_layout: DataLayout,
    arrays: Iterable[str],
) -> List[str]:
    """Arrays (among ``arrays``) remapped between the two layouts."""
    return [
        array for array in arrays
        if needs_remap(from_layout, to_layout, array)
    ]


def remapping_cost(
    from_layout: DataLayout,
    to_layout: DataLayout,
    arrays: Iterable[str],
    symbols: SymbolTable,
    db: TrainingDatabase,
    nprocs: int,
) -> float:
    """Estimated time (us) to remap every changed array in ``arrays``."""
    total = 0.0
    for array in arrays_needing_remap(from_layout, to_layout, arrays):
        symbol = symbols.array(array)
        local_bytes = max(symbol.total_bytes // nprocs, 1)
        total += db.predict(
            "transpose", nprocs, local_bytes, stride="nonunit",
            latency="high",
        )
    return total
