"""Candidate data-layout search spaces (paper Section 2.2.2).

The cross product of a phase's alignment candidates and the distribution
candidates defines its candidate-layout search space.  The prototype uses
the *exhaustive* heuristic restricted to one-dimensional BLOCK
distributions (matching the Fortran D compiler's capabilities); the
generators below also implement the paper's future-work extensions —
one-dimensional CYCLIC/BLOCK-CYCLIC and multi-dimensional BLOCK grids —
behind :class:`DistributionOptions`.

Candidates are deduplicated by behavioural signature: a transposed
orientation distributed by row equals a canonical orientation distributed
by column (Section 3.2's symmetry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # avoid the alignment <-> distribution import cycle
    from ..alignment.search_space import (
        AlignmentCandidate,
        AlignmentSearchSpaces,
    )
from ..analysis.phases import Phase
from ..frontend.symbols import ArraySymbol, SymbolTable
from ..obs.tracing import span as obs_span
from .layouts import DataLayout, DimDistribution, Distribution
from .template import Template


@dataclass(frozen=True)
class DistributionOptions:
    """Which distribution shapes to enumerate."""

    one_dim_block: bool = True
    one_dim_cyclic: bool = False
    block_cyclic_sizes: Tuple[int, ...] = ()
    multi_dim_grids: bool = False

    @classmethod
    def prototype(cls) -> "DistributionOptions":
        """The paper prototype's restriction: 1-D BLOCK only."""
        return cls()

    @classmethod
    def extended(cls, block_cyclic_sizes: Tuple[int, ...] = (4,)) -> "DistributionOptions":
        return cls(
            one_dim_cyclic=True,
            block_cyclic_sizes=block_cyclic_sizes,
            multi_dim_grids=True,
        )


def _factor_pairs(n: int) -> List[Tuple[int, int]]:
    pairs = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            pairs.append((f, n // f))
            if f != n // f:
                pairs.append((n // f, f))
        f += 1
    return sorted(pairs)


def enumerate_distributions(
    template: Template, nprocs: int, options: DistributionOptions
) -> List[Distribution]:
    """All candidate distributions of the template over ``nprocs``."""
    rank = template.rank
    formats: List[DimDistribution] = []
    if options.one_dim_block:
        formats.append(DimDistribution(procs=nprocs))
    if options.one_dim_cyclic:
        formats.append(DimDistribution(procs=nprocs, block=1))
    for block in options.block_cyclic_sizes:
        if block < 1:
            raise ValueError("block-cyclic needs a positive block size")
        formats.append(DimDistribution(procs=nprocs, block=block))
    out = [
        Distribution.one_dim(rank, dim, fmt)
        for fmt in formats
        for dim in range(rank)
    ]
    if options.multi_dim_grids and rank >= 2:
        for d1 in range(rank):
            for d2 in range(d1 + 1, rank):
                for p1, p2 in _factor_pairs(nprocs):
                    dims = [DimDistribution()] * rank
                    dims[d1] = DimDistribution(procs=p1)
                    dims[d2] = DimDistribution(procs=p2)
                    out.append(Distribution(dims=tuple(dims)))
    return out


@dataclass(frozen=True)
class CandidateLayout:
    """One node-to-be of the data layout graph: a phase, an alignment
    candidate, a distribution, and the induced concrete per-array layout."""

    phase_index: int
    position: int  # index within the phase's search space
    alignment: "AlignmentCandidate"
    layout: DataLayout

    @property
    def label(self) -> str:
        dist = self.layout.distribution
        dims = dist.distributed_dims()
        dim_txt = ",".join(f"t{d}:{dist.dims[d]}" for d in dims) or "serial"
        return f"phase{self.phase_index}/c{self.position}[{dim_txt}]"


@dataclass
class LayoutSearchSpaces:
    """Per-phase candidate layout lists (the browsable search spaces)."""

    per_phase: Dict[int, List[CandidateLayout]]
    distributions: List[Distribution]
    template: Template
    nprocs: int

    def candidates_for(self, phase_index: int) -> List[CandidateLayout]:
        return self.per_phase[phase_index]

    def total_candidates(self) -> int:
        return sum(len(v) for v in self.per_phase.values())


def build_layout_search_spaces(
    phases: Sequence[Phase],
    alignment_spaces: "AlignmentSearchSpaces",
    template: Template,
    symbols: SymbolTable,
    nprocs: int,
    options: Optional[DistributionOptions] = None,
) -> LayoutSearchSpaces:
    """Cross alignment candidates with distribution candidates, dropping
    behaviourally identical layouts."""
    options = options or DistributionOptions.prototype()
    with obs_span(
        "distribution.enumerate", nprocs=nprocs, phases=len(phases)
    ) as enum_span:
        distributions = enumerate_distributions(template, nprocs, options)
        enum_span.set_attr("distributions", len(distributions))
        per_phase: Dict[int, List[CandidateLayout]] = {}
        for phase in phases:
            with obs_span(
                "distribution.phase", phase=phase.index
            ) as phase_span:
                phase_arrays = [
                    a
                    for a in phase.arrays
                    if isinstance(symbols.get(a), ArraySymbol)
                ]
                seen = set()
                generated = 0
                candidates: List[CandidateLayout] = []
                for alignment in alignment_spaces.candidates_for(
                    phase.index
                ):
                    align_map = {
                        a: alignment.alignment_map[a]
                        for a in phase_arrays
                        if a in alignment.alignment_map
                    }
                    for dist in distributions:
                        layout = DataLayout.build(
                            template=template,
                            alignments=align_map,
                            distribution=dist,
                        )
                        generated += 1
                        signature = layout.signature()
                        if signature in seen:
                            continue
                        seen.add(signature)
                        candidates.append(
                            CandidateLayout(
                                phase_index=phase.index,
                                position=len(candidates),
                                alignment=alignment,
                                layout=layout,
                            )
                        )
                phase_span.set_attr("generated", generated)
                phase_span.set_attr("pruned", generated - len(candidates))
                phase_span.set_attr("kept", len(candidates))
            per_phase[phase.index] = candidates
    return LayoutSearchSpaces(
        per_phase=per_phase,
        distributions=distributions,
        template=template,
        nprocs=nprocs,
    )
