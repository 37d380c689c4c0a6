"""The data layout graph (paper Section 2.4).

One node per candidate layout per phase, weighted by the candidate's
estimated execution time times the phase's expected execution frequency;
edges represent possible remappings, weighted by redistribution cost times
transition frequency.

Remapping follows **lazy** semantics (matching the SPMD code generator):
an array is remapped when it is next *used* under a different layout, so
remap edges connect, per array, each referencing phase to the next phase
referencing that array — phases in between that do not touch the array do
not pin its layout.  Transition frequencies are absorbed-flow masses on
the PCFG (a loop back-edge makes the last and first referencing phases of
the loop adjacent, charging per-iteration remaps correctly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.pcfg import ENTRY, EXIT, PCFG
from ..analysis.phases import Phase
from ..codegen.spmd import array_layout_signature
from ..frontend.symbols import ArraySymbol, SymbolTable
from ..obs import tracing
from ..perf.estimator import EstimatedCandidate, EstimationResult
from ..perf.training import TrainingDatabase
from ..resilience.deadline import current_deadline

#: mass below this fraction of the initial flow is dropped during
#: absorbed-flow propagation (guards against non-referencing cycles)
_MASS_EPS = 1e-9

#: worklist pops between two looks at the request's hard limit
_CHECK_STRIDE = 4096


def array_transitions(
    pcfg: PCFG,
    referencing: Dict[str, set],
) -> Dict[str, List[Tuple[int, int, float]]]:
    """For every array, the expected number of direct control transfers
    from each referencing phase to the *next* referencing phase.

    Computed by absorbing flow: each referencing phase emits its out-edge
    frequencies; mass travels through non-referencing phases (split
    proportionally to edge frequencies) until absorbed by a referencing
    phase or lost at the program exit.  A request deadline in scope is
    consulted every ``_CHECK_STRIDE`` pops, so a pathological PCFG
    cannot outrun the request's hard limit.
    """
    graph = pcfg.graph
    deadline = current_deadline()
    pops = 0
    out: Dict[str, List[Tuple[int, int, float]]] = {}
    for array, refs in referencing.items():
        transitions: Dict[Tuple[int, int], float] = {}
        for src in sorted(refs):
            if src not in graph:
                continue
            # Initial mass: src's outgoing edge frequencies.
            worklist: List[Tuple[object, float]] = [
                (v, data["freq"])
                for _, v, data in graph.out_edges(src, data=True)
            ]
            initial = sum(m for _, m in worklist) or 1.0
            guard = _MASS_EPS * initial
            while worklist:
                node, mass = worklist.pop()
                if deadline is not None:
                    pops += 1
                    if pops % _CHECK_STRIDE == 0:
                        deadline.checkpoint("graph.transitions")
                if mass <= guard:
                    continue
                if isinstance(node, int) and node in refs:
                    key = (src, node)
                    transitions[key] = transitions.get(key, 0.0) + mass
                    continue
                if node == EXIT:
                    continue
                edges = list(graph.out_edges(node, data=True))
                total = sum(d["freq"] for _, _, d in edges)
                if total <= 0.0:
                    continue
                for _, succ, data in edges:
                    worklist.append((succ, mass * data["freq"] / total))
        out[array] = sorted(
            (src, dst, freq) for (src, dst), freq in transitions.items()
        )
    return out


@dataclass
class LayoutEdge:
    """A remapping edge of the data layout graph."""

    src_phase: int
    dst_phase: int
    #: per (src candidate position, dst candidate position): cost in us
    costs: Dict[Tuple[int, int], float] = field(default_factory=dict)


@dataclass
class DataLayoutGraph:
    """Node and edge weights ready for the selection step."""

    phases: Sequence[Phase]
    pcfg: PCFG
    estimates: EstimationResult
    #: phase -> frequency-weighted node costs per candidate (us)
    node_costs: Dict[int, List[float]]
    edges: List[LayoutEdge]
    transitions: Dict[str, List[Tuple[int, int, float]]]

    def candidates(self, phase_index: int) -> List[EstimatedCandidate]:
        return self.estimates.per_phase[phase_index]

    def num_nodes(self) -> int:
        return sum(len(v) for v in self.estimates.per_phase.values())

    def evaluate(self, selection: Dict[int, int]) -> float:
        """Total estimated cost (us) of a full selection: node costs plus
        remapping edges.  Shared by the ILP (as a cross-check) and by every
        baseline selector."""
        total = 0.0
        for phase_index, costs in self.node_costs.items():
            total += costs[selection[phase_index]]
        for edge in self.edges:
            pair = (selection[edge.src_phase], selection[edge.dst_phase])
            total += edge.costs.get(pair, 0.0)
        return total


def build_layout_graph(
    phases: Sequence[Phase],
    pcfg: PCFG,
    estimates: EstimationResult,
    symbols: SymbolTable,
    db: TrainingDatabase,
    nprocs: int,
) -> DataLayoutGraph:
    """Assemble the data layout graph from estimates and the PCFG."""
    with tracing.span("graph.build", phases=len(phases)) as graph_span:
        graph = _build_layout_graph(
            phases, pcfg, estimates, symbols, db, nprocs
        )
        graph_span.set_attr("nodes", graph.num_nodes())
        graph_span.set_attr("edges", len(graph.edges))
        if tracing.detail_active():
            for array, edges in sorted(graph.transitions.items()):
                tracing.add_event(
                    "graph.transitions",
                    array=array,
                    transitions=[[src, dst, freq]
                                 for src, dst, freq in edges],
                )
    return graph


def _build_layout_graph(
    phases: Sequence[Phase],
    pcfg: PCFG,
    estimates: EstimationResult,
    symbols: SymbolTable,
    db: TrainingDatabase,
    nprocs: int,
) -> DataLayoutGraph:
    referencing: Dict[str, set] = {}
    for phase in phases:
        for array in phase.arrays:
            if isinstance(symbols.get(array), ArraySymbol):
                referencing.setdefault(array, set()).add(phase.index)

    transitions = array_transitions(pcfg, referencing)

    node_costs: Dict[int, List[float]] = {}
    for phase in phases:
        freq = pcfg.phase_frequency(phase.index)
        # The vanishing position-dependent factor breaks exact ties in
        # favour of earlier (simpler, prototype-shaped) candidates, so
        # the optimum is deterministic when estimates coincide.
        node_costs[phase.index] = [
            e.total * freq * (1.0 + 1e-9 * pos)
            for pos, e in enumerate(estimates.per_phase[phase.index])
        ]

    # Group per-array transitions by (src phase, dst phase).
    per_edge: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
    for array, edges in transitions.items():
        for src, dst, freq in edges:
            per_edge.setdefault((src, dst), []).append((array, freq))

    # Remap pricing is memoized: the transpose prediction depends only
    # on the array (its local block size), and a candidate's signature
    # for an array depends only on (candidate layout, array) — not on
    # the edge — so both are computed once and reused across the i x j
    # candidate pairs.  The accumulation order over ``array_freqs`` is
    # unchanged, keeping edge costs bitwise-equal to the direct loop.
    remap_cost: Dict[str, float] = {}

    def array_remap_cost(array: str) -> float:
        cost = remap_cost.get(array)
        if cost is None:
            symbol = symbols.array(array)
            local = max(symbol.total_bytes // nprocs, 1)
            cost = remap_cost[array] = db.predict(
                "transpose", nprocs, local, stride="nonunit",
                latency="high",
            )
        return cost

    _MISSING = (None,)
    sig_cache: Dict[Tuple[int, str], tuple] = {}

    def signature(cand: EstimatedCandidate, array: str) -> tuple:
        key = (id(cand), array)
        sig = sig_cache.get(key)
        if sig is None:
            try:
                sig = array_layout_signature(cand.candidate.layout, array)
            except KeyError:
                sig = _MISSING
            sig_cache[key] = sig
        return sig

    layout_edges: List[LayoutEdge] = []
    for (src, dst), array_freqs in sorted(per_edge.items()):
        edge = LayoutEdge(src_phase=src, dst_phase=dst)
        src_cands = estimates.per_phase[src]
        dst_cands = estimates.per_phase[dst]
        for i, src_cand in enumerate(src_cands):
            for j, dst_cand in enumerate(dst_cands):
                cost = 0.0
                for array, freq in array_freqs:
                    sig_from = signature(src_cand, array)
                    sig_to = signature(dst_cand, array)
                    if sig_from is _MISSING or sig_to is _MISSING:
                        continue
                    if sig_from == sig_to or not sig_from[0]:
                        continue
                    cost += freq * array_remap_cost(array)
                if cost > 0.0:
                    edge.costs[(i, j)] = cost
        if edge.costs:
            layout_edges.append(edge)

    return DataLayoutGraph(
        phases=phases,
        pcfg=pcfg,
        estimates=estimates,
        node_costs=node_costs,
        edges=layout_edges,
        transitions=transitions,
    )
