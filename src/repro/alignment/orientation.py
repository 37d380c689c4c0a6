"""Orientation selection (paper Section 2.2.1, "Orientation Selection").

A conflict-free CAG's partitioning only records *relative* alignment; an
orientation maps each block (set of mutually aligned array dimensions) to
a concrete template dimension.  For a d-dimensional template with d blocks
there are d! orientations, all satisfying the preferences; we use a greedy
strategy in the spirit of Anderson & Lam: blocks are placed in decreasing
weight order onto the template dimension most of their members "naturally"
occupy (weighted by array size), subject to the constraint that blocks
containing dimensions of the same array take distinct template dimensions.

The prototype's distribution search spaces are 1-D BLOCK only, so any
orientation composed with the exhaustive distribution set yields the same
candidate layouts (the paper notes this symmetry); the greedy choice keeps
descriptions canonical and minimizes remapping between similarly oriented
candidates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..distribution.layouts import Alignment
from ..frontend.symbols import ArraySymbol, SymbolTable
from .cag import Node
from .lattice import Partitioning


class OrientationError(Exception):
    """Raised when a partitioning cannot be embedded in the template."""


def orient(
    partitioning: Partitioning,
    template_rank: int,
    symbols: SymbolTable,
) -> Dict[str, Alignment]:
    """Choose template dimensions for every block and derive per-array
    :class:`Alignment` maps."""
    if partitioning.has_conflict():
        raise OrientationError(
            "cannot orient a conflicting partitioning (two dimensions of "
            "one array share a block)"
        )
    blocks = list(partitioning.blocks)

    def block_weight(block: FrozenSet[Node]) -> float:
        weight = 0.0
        for array, _dim in block:
            symbol = symbols.get(array)
            if isinstance(symbol, ArraySymbol):
                weight += symbol.total_bytes
        return weight

    def votes(block: FrozenSet[Node]) -> Dict[int, float]:
        """How strongly the block prefers each template dimension: each
        member (a, dim) votes for template dim ``dim`` with the array's
        size."""
        out: Dict[int, float] = {}
        for array, dim in block:
            symbol = symbols.get(array)
            size = (
                float(symbol.total_bytes)
                if isinstance(symbol, ArraySymbol)
                else 1.0
            )
            if dim < template_rank:
                out[dim] = out.get(dim, 0.0) + size
        return out

    # Deterministic order: heaviest blocks first, ties by content.
    order = sorted(
        range(len(blocks)),
        key=lambda i: (-block_weight(blocks[i]), sorted(blocks[i])),
    )

    assignment: Dict[int, int] = {}  # block index -> template dim
    used_by_array: Dict[str, set] = {}
    for block_index in order:
        block = blocks[block_index]
        block_arrays = {array for array, _dim in block}
        forbidden = set()
        for array in block_arrays:
            forbidden |= used_by_array.get(array, set())
        candidates = [t for t in range(template_rank) if t not in forbidden]
        if not candidates:
            raise OrientationError(
                f"no template dimension left for block {sorted(block)}"
            )
        vote = votes(block)
        best = max(candidates, key=lambda t: (vote.get(t, 0.0), -t))
        assignment[block_index] = best
        for array in block_arrays:
            used_by_array.setdefault(array, set()).add(best)

    # Derive per-array axis maps.
    dim_map: Dict[str, Dict[int, int]] = {}
    for block_index, tdim in assignment.items():
        for array, dim in blocks[block_index]:
            dim_map.setdefault(array, {})[dim] = tdim

    alignments: Dict[str, Alignment] = {}
    for array, mapping in sorted(dim_map.items()):
        symbol = symbols.get(array)
        rank = symbol.rank if isinstance(symbol, ArraySymbol) else (
            max(mapping) + 1
        )
        axis = []
        taken = set(mapping.values())
        free = [t for t in range(template_rank) if t not in taken]
        for dim in range(rank):
            if dim in mapping:
                axis.append(mapping[dim])
            else:
                # Dimension absent from the partitioning (isolated node
                # dropped by a restriction): give it a leftover template
                # dimension, preferring the natural position.
                if dim in free:
                    axis.append(dim)
                    free.remove(dim)
                elif free:
                    axis.append(free.pop(0))
                else:  # pragma: no cover - rank <= template_rank invariant
                    raise OrientationError(
                        f"array {array!r} rank exceeds template rank"
                    )
        alignments[array] = Alignment(axis_map=tuple(axis))
    return alignments
