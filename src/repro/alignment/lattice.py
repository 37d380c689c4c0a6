"""Conflict-free alignment information ordered by refinement (paper
§2.2.1).

The inter-dimensional alignment information of a conflict-free CAG is its
node partitioning (connected components).  Partitionings over a fixed node
set are ordered by *refinement*: ``X ⊑ Y`` iff X refines Y (X carries
weaker-or-equal information).  The search-space builder reads only that
order (:meth:`Partitioning.refines`); the union it grows classes with is
:meth:`repro.alignment.cag.Components.join`, which refuses a conflict.

Partitionings are immutable; ``refines`` is linear using hash-tagged
block membership, matching the paper's complexity discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .cag import CAG, Node


@dataclass(frozen=True)
class Partitioning:
    """An immutable partitioning of CAG nodes.  ``nodes`` (the union of
    the blocks) is derived once, at construction; the value's identity
    is its blocks alone."""

    blocks: Tuple[FrozenSet[Node], ...]

    def __post_init__(self) -> None:
        seen: Set[Node] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty partition block")
            if seen & block:
                raise ValueError("overlapping partition blocks")
            seen |= block
        object.__setattr__(self, "nodes", frozenset(seen))

    @classmethod
    def of(cls, blocks: Iterable[Iterable[Node]]) -> "Partitioning":
        normalized = sorted(
            (frozenset(b) for b in blocks if b), key=lambda b: sorted(b)
        )
        return cls(blocks=tuple(normalized))

    @classmethod
    def from_cag(cls, cag: CAG) -> "Partitioning":
        """The alignment information of a conflict-free CAG."""
        return cls.of(cag.components())

    # -- queries ---------------------------------------------------------------

    def _membership(self) -> Dict[Node, int]:
        tag: Dict[Node, int] = {}
        for i, block in enumerate(self.blocks):
            for node in block:
                tag[node] = i
        return tag

    def has_conflict(self) -> bool:
        """Two dimensions of one array in the same block."""
        for block in self.blocks:
            arrays: Set[str] = set()
            for array, _dim in block:
                if array in arrays:
                    return True
                arrays.add(array)
        return False

    # -- lattice operations -----------------------------------------------------

    def refines(self, other: "Partitioning") -> bool:
        """``self ⊑ other``: every block of self fits inside a block of
        other.  Requires equal node sets; linear via membership tags."""
        if self.nodes != other.nodes:
            return False
        tags = other._membership()
        for block in self.blocks:
            it = iter(block)
            first_tag = tags[next(it)]
            if any(tags[node] != first_tag for node in it):
                return False
        return True

    def restricted(self, arrays: Iterable[str]) -> "Partitioning":
        """Projection onto the nodes of the given arrays."""
        keep = set(arrays)
        blocks = []
        for block in self.blocks:
            sub = {n for n in block if n[0] in keep}
            if sub:
                blocks.append(sub)
        return Partitioning.of(blocks)

    def extended(self, nodes: Iterable[Node]) -> "Partitioning":
        """Add missing nodes as singletons (keeps node sets comparable)."""
        missing = [n for n in nodes if n not in self.nodes]
        blocks: List[Set[Node]] = [set(b) for b in self.blocks]
        blocks.extend({n} for n in missing)
        return Partitioning.of(blocks)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        def fmt(block: FrozenSet[Node]) -> str:
            return "{" + ", ".join(f"{a}[{d}]" for a, d in sorted(block)) + "}"

        return " | ".join(fmt(b) for b in self.blocks)
