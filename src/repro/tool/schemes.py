"""Promising global layout *schemes* — the alternatives the paper
measures against each other in Figures 3-7.

For a program whose template has ``r`` dimensions the interesting schemes
are:

* ``dist-k`` (static): the cheapest selection whose distribution is BLOCK
  on template dimension ``k`` everywhere (``row``/``column`` for 2-D
  programs; ``dim1``/``dim2``/``dim3`` for Erlebacher);
* ``remapped``: each phase takes its locally cheapest candidate (the
  greedy, remap-blind choice — for ADI-style programs this is exactly the
  transpose scheme that keeps every phase dependence-local);
* ``tool``: the assistant's 0-1 optimal selection.

Each scheme carries both the *estimated* cost (assistant cost model) and,
once measured, the simulated execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..selection.baselines import greedy_selection
from ..selection.ilp import select_layouts
from .assistant import AssistantResult
from .measurement import Measurement, measure_layouts

STATIC_PREFIX = "dist"
REMAPPED = "remapped"
TOOL = "tool"

#: human-oriented names for the 2-D static schemes
DIM_NAMES_2D = {0: "row", 1: "column"}


@dataclass
class Scheme:
    """One global layout alternative."""

    name: str
    selection: Dict[int, int]
    estimated_us: float
    measurement: Optional[Measurement] = None

    @property
    def measured_us(self) -> Optional[float]:
        return self.measurement.makespan_us if self.measurement else None


def _static_allowed(result: AssistantResult, tdim: int
                    ) -> Optional[Dict[int, Set[int]]]:
    """Candidate positions behaviourally equal to *canonical alignment +
    1-D BLOCK on template dimension* ``tdim``.

    Matching is by layout signature, not by the candidate's syntactic
    distribution: a transposed orientation distributed on the other
    dimension is the same layout (the paper's orientation symmetry), and
    the search-space dedup may have kept either spelling.
    """
    from ..distribution.layouts import (
        Alignment,
        DataLayout,
        Distribution,
    )
    from ..frontend.symbols import ArraySymbol

    template = result.template
    symbols = result.symbols
    allowed: Dict[int, Set[int]] = {}
    for idx, cands in result.layout_spaces.per_phase.items():
        phase = result.partition.phases[idx]
        align = {}
        for array in phase.arrays:
            symbol = symbols.get(array)
            if isinstance(symbol, ArraySymbol):
                align[array] = Alignment.canonical(symbol.rank)
        dist = Distribution.one_dim_block(
            template.rank, tdim, result.config.nprocs
        )
        # Preference order for the scheme's alignment: fully canonical
        # first (the layout a user would write down), then the phase's own
        # alignment candidates (embeddings of lower-rank arrays, e.g. a
        # coefficient vector aligned with the sweep dimension, have no
        # canonical spelling).
        targets = [
            DataLayout.build(
                template=template, alignments=align, distribution=dist
            ).signature()
        ]
        for acand in result.alignment_spaces.candidates_for(idx):
            amap = {
                a: acand.alignment_map[a]
                for a in align
                if a in acand.alignment_map
            }
            if len(amap) == len(align):
                targets.append(
                    DataLayout.build(
                        template=template, alignments=amap,
                        distribution=dist,
                    ).signature()
                )
        positions: Set[int] = set()
        for target in targets:
            positions = {
                pos for pos, cand in enumerate(cands)
                if cand.layout.signature() == target
            }
            if positions:
                break
        if not positions:
            return None  # scheme unavailable for this phase
        allowed[idx] = positions
    return allowed


def scheme_name_for_dim(result: AssistantResult, tdim: int) -> str:
    if result.template.rank == 2 and tdim in DIM_NAMES_2D:
        return DIM_NAMES_2D[tdim]
    return f"{STATIC_PREFIX}{tdim + 1}"


def enumerate_schemes(result: AssistantResult) -> List[Scheme]:
    """Build the promising-scheme list (estimates only; measuring is the
    caller's choice since simulation is the slow part)."""
    schemes: List[Scheme] = []
    for tdim in range(result.template.rank):
        allowed = _static_allowed(result, tdim)
        if allowed is None:
            continue
        restricted = select_layouts(
            result.graph, backend=result.config.ilp_backend, allowed=allowed
        )
        schemes.append(
            Scheme(
                name=scheme_name_for_dim(result, tdim),
                selection=restricted.selection,
                estimated_us=restricted.objective,
            )
        )
    greedy_sel, greedy_cost = greedy_selection(result.graph)
    if all(greedy_sel != s.selection for s in schemes):
        schemes.append(
            Scheme(
                name=REMAPPED, selection=greedy_sel, estimated_us=greedy_cost
            )
        )
    tool_sel = result.selection.selection
    schemes.append(
        Scheme(
            name=TOOL,
            selection=dict(tool_sel),
            estimated_us=result.selection.objective,
        )
    )
    return schemes


def measure_scheme(
    scheme: Scheme,
    result: AssistantResult,
    source: str,
    actual_branch_probs: Optional[Dict[int, float]] = None,
    actual_branch_probability: float = 0.5,
    max_pipeline_stages: int = 1024,
) -> Scheme:
    """Fill in the simulated execution time of ``scheme``."""
    layouts = {
        idx: result.layout_spaces.per_phase[idx][pos].layout
        for idx, pos in scheme.selection.items()
    }
    scheme.measurement = measure_layouts(
        source,
        layouts,
        nprocs=result.config.nprocs,
        machine=result.config.machine,
        actual_branch_probs=actual_branch_probs,
        actual_branch_probability=actual_branch_probability,
        max_pipeline_stages=max_pipeline_stages,
    )
    return scheme


def matching_scheme(schemes: List[Scheme], selection: Dict[int, int]
                    ) -> Optional[Scheme]:
    """The scheme (excluding ``tool`` itself) whose selection equals the
    given one — used to name what the tool picked."""
    for scheme in schemes:
        if scheme.name != TOOL and scheme.selection == selection:
            return scheme
    return None
