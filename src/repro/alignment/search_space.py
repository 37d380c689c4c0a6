"""Alignment search-space construction (paper Section 3.2).

The heuristic:

1. initialize per-phase CAGs (conflicts resolved optimally by the 0-1
   formulation);
2. partition the phases into *classes* whose merged CAGs are conflict-free,
   visiting phases in reverse postorder of the PCFG and greedily joining
   CAGs; a conflict closes the current class and opens a new one;
3. exchange alignment information between classes by *imports*: importing
   class S into class T scales S's edge weights by a dominance factor,
   merges with T's CAG, optimally resolves any conflict in the merged CAG,
   and restricts the result to T's arrays;
4. an imported candidate enters T's search space only if its information
   is not weaker-or-equal (``⊑``) to a candidate already present;
5. class candidates are projected onto each phase of the class (restricted
   to the phase's arrays, oriented, deduplicated).

With ``p`` classes each final class search space holds at most ``p``
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.pcfg import PCFG
from ..analysis.phases import Phase
from ..distribution.layouts import Alignment
from ..distribution.template import Template
from ..frontend.symbols import ArraySymbol, SymbolTable
from ..obs.tracing import span as obs_span
from .cag import CAG, Components
from .ilp import AlignmentResolution, resolve_conflicts
from .lattice import Partitioning
from .orientation import orient
from .weights import build_phase_cag


@dataclass(frozen=True)
class AlignmentCandidate:
    """One entry of an alignment search space."""

    partitioning: Partitioning
    alignments: Tuple[Tuple[str, Alignment], ...]  # sorted by array
    provenance: str  # "own" | "import:<class>"

    @property
    def alignment_map(self) -> Dict[str, Alignment]:
        return dict(self.alignments)

    def signature(self) -> Tuple:
        return self.alignments


@dataclass
class PhaseClass:
    """A set of phases whose merged CAG is conflict-free."""

    index: int
    phase_indices: List[int]
    cag: CAG
    candidates: List[Partitioning] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"class{self.index}"


@dataclass
class AlignmentSearchSpaces:
    """Result of alignment analysis: per-phase candidate lists plus the
    intermediate structures (browsable, per the tool's design goal)."""

    per_phase: Dict[int, List[AlignmentCandidate]]
    classes: List[PhaseClass]
    phase_cags: Dict[int, CAG]
    resolutions: List[AlignmentResolution]  # every ILP resolution performed
    #: every import tried, in order: (source class, sink class, accepted)
    imports: List[Tuple[str, str, bool]] = field(default_factory=list)

    def candidates_for(self, phase_index: int) -> List[AlignmentCandidate]:
        return self.per_phase[phase_index]


def dominance_factor(sink: CAG) -> float:
    """Scale factor applied to an import's source CAG so its preferences
    dominate the sink's when the merge conflicts."""
    return sink.total_weight() + 1.0


def partition_classes(
    order: Sequence[int], phase_cags: Dict[int, CAG]
) -> List[PhaseClass]:
    """Step 2: visit the phases in ``order`` and join each one's CAG to
    the current class while the union stays conflict-free; a conflict
    closes the class and opens the next.  The class's components grow
    under one union-find, and a joining phase's weights are added into
    the class CAG in place, in the order ``CAG.merge`` adds them."""
    classes: List[PhaseClass] = []
    components = Components()
    for idx in order:
        cag = phase_cags[idx]
        if classes and components.join(cag):
            classes[-1].cag.absorb(cag)
            classes[-1].phase_indices.append(idx)
            continue
        components = Components()
        components.join(cag)
        classes.append(PhaseClass(index=len(classes), phase_indices=[idx],
                                  cag=cag.copy()))
    return classes


def build_alignment_search_spaces(
    phases: List[Phase],
    pcfg: PCFG,
    symbols: SymbolTable,
    template: Template,
    backend: str = "scipy",
) -> AlignmentSearchSpaces:
    """Run the full Section 3.2 heuristic."""
    d = template.rank
    resolutions: List[AlignmentResolution] = []
    imports: List[Tuple[str, str, bool]] = []

    # Step 1 — per-phase conflict-free CAGs.
    phase_cags: Dict[int, CAG] = {}
    for phase in phases:
        cag = build_phase_cag(phase, symbols)
        if cag.has_conflict():
            resolution = resolve_conflicts(
                cag, d, backend=backend, name=f"phase{phase.index}"
            )
            resolutions.append(resolution)
            cag = resolution.resolved
        phase_cags[phase.index] = cag

    # Step 2 — greedy class partitioning in reverse postorder.
    order = pcfg.reverse_postorder()
    placed = set(order)
    order += [p.index for p in phases if p.index not in placed]
    classes = partition_classes(order, phase_cags)

    # Step 3/4 — exchange alignment information via imports.
    with obs_span("alignment.imports", classes=len(classes)):
        for sink in classes:
            own = Partitioning.from_cag(sink.cag)
            sink.candidates = [own]
            factor = dominance_factor(sink.cag)
            sink_arrays = sink.cag.arrays
            for source in classes:
                if source is sink:
                    continue
                scaled = source.cag.scaled(factor)
                merged = CAG.merge(scaled, sink.cag)
                if merged.has_conflict():
                    resolution = resolve_conflicts(
                        merged, d, backend=backend,
                        name=f"import:{source.name}->{sink.name}",
                    )
                    resolutions.append(resolution)
                    merged = resolution.resolved
                imported = Partitioning.from_cag(
                    merged.restricted(sink_arrays)
                ).extended(sink.cag.nodes)
                # Insert only if not weaker-or-equal to existing
                # information.
                accepted = not any(
                    imported.refines(c) for c in sink.candidates
                )
                imports.append((source.name, sink.name, accepted))
                if accepted:
                    sink.candidates.append(imported)

    # Step 5 — project class candidates onto individual phases.  A
    # projection holds every dimension of every phase array, so its
    # orientation is a function of the projection alone: each distinct
    # one is oriented once.
    per_phase: Dict[int, List[AlignmentCandidate]] = {}
    class_of_phase = {
        idx: cls for cls in classes for idx in cls.phase_indices
    }
    oriented: Dict[Partitioning, Tuple[Tuple[str, Alignment], ...]] = {}
    for phase in phases:
        cls = class_of_phase[phase.index]
        phase_nodes = phase_cags[phase.index].nodes
        seen = set()
        candidates: List[AlignmentCandidate] = []
        for pos, class_candidate in enumerate(cls.candidates):
            restricted = class_candidate.restricted(
                phase.arrays
            ).extended(phase_nodes)
            if restricted not in oriented:
                alignments = orient(restricted, d, symbols)
                # Ensure every phase array has an alignment entry.
                for array in phase.arrays:
                    symbol = symbols.get(array)
                    if (isinstance(symbol, ArraySymbol)
                            and array not in alignments):
                        alignments[array] = Alignment.canonical(symbol.rank)
                oriented[restricted] = tuple(sorted(alignments.items()))
            candidate = AlignmentCandidate(
                partitioning=restricted,
                alignments=oriented[restricted],
                provenance="own" if pos == 0 else f"import:{pos}",
            )
            if candidate.signature() not in seen:
                seen.add(candidate.signature())
                candidates.append(candidate)
        per_phase[phase.index] = candidates

    return AlignmentSearchSpaces(
        per_phase=per_phase,
        classes=classes,
        phase_cags=phase_cags,
        resolutions=resolutions,
        imports=imports,
    )
