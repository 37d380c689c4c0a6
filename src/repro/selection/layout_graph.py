"""The data layout graph (paper Section 2.4).

One node per candidate layout per phase, weighted by the candidate's
estimated execution time times the phase's expected execution frequency;
edges represent possible remappings, weighted by redistribution cost times
transition frequency.

Remapping follows **lazy** semantics (matching the SPMD code generator):
an array is remapped when it is next *used* under a different layout, so
remap edges connect, per array, each referencing phase to the next phase
referencing that array — phases in between that do not touch the array do
not pin its layout.  A remap edge's transition frequency is the expected
number of control transfers from one referencing phase to the next: the
PCFG read as an absorbing Markov chain in which the array's referencing
phases and the program exit absorb and every other phase passes mass on
in proportion to its out-edge frequencies (a loop back-edge makes the
last and first referencing phases of the loop adjacent, charging
per-iteration remaps correctly).  Mass that reaches the exit before
another use of the array is *lost at exit*: it prices no remap.
:func:`array_transitions` solves for the frequencies exactly, one linear
system per distinct set of referencing phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.pcfg import ENTRY, EXIT, PCFG
from ..analysis.phases import Phase
from ..distribution.layouts import needs_remap
from ..frontend.symbols import ArraySymbol, SymbolTable
from ..obs import tracing
from ..perf.estimator import EstimatedCandidate, EstimationResult
from ..perf.training import TrainingDatabase
from ..resilience.deadline import checkpoint


def array_transitions(
    pcfg: PCFG,
    referencing: Dict[str, set],
) -> Dict[str, List[Tuple[int, int, float]]]:
    """For every array, the expected number of direct control transfers
    from each referencing phase to the *next* referencing phase, as
    sorted ``(src, dst, freq)`` triples.

    The answer depends on the set of referencing phases only, so arrays
    referenced by the same phases share one :func:`_absorbed_flow`; a
    request deadline in scope is consulted once per distinct set.
    """
    edges = {
        node: {succ: data["freq"] for succ, data in successors.items()}
        for node, successors in pcfg.graph.adjacency()
    }
    solved: Dict[frozenset, List[Tuple[int, int, float]]] = {}
    out: Dict[str, List[Tuple[int, int, float]]] = {}
    for array, refs in referencing.items():
        key = frozenset(refs)
        if key not in solved:
            checkpoint("graph.transitions")
            solved[key] = _absorbed_flow(edges, key)
        out[array] = list(solved[key])
    return out


def _absorbed_flow(
    edges: Dict[object, Dict[object, float]], refs: frozenset
) -> List[Tuple[int, int, float]]:
    """Absorption frequencies of the chain whose absorbing states are the
    phases in ``refs`` and the program exit.

    Each referencing phase emits its out-edge frequencies.  The other
    phases that mass can enter are the transient states: mass in one
    moves along an out-edge with probability edge frequency over the
    node's out-frequency.  With ``Q`` the transient-to-transient and
    ``R`` the transient-to-referencing block of those probabilities,
    ``X = (I - Q)^-1 R`` is the share of the mass entering a transient
    phase that each referencing phase absorbs; the rest is lost at exit.
    A transient phase that reaches no referencing phase loses all its
    mass: clearing its row of ``Q`` keeps ``I - Q`` non-singular, and a
    share is zero exactly where no path exists.
    """
    sources = sorted(src for src in refs if src in edges)
    column = {dst: j for j, dst in enumerate(sources)}
    row: Dict[object, int] = {}
    pending = [v for src in sources for v in edges[src]]
    while pending:
        node = pending.pop()
        if node in refs or node == EXIT or node in row:
            continue
        row[node] = len(row)
        pending.extend(edges[node])

    shares: List[List[float]] = []
    if row:
        q = np.zeros((len(row), len(row)))
        r = np.zeros((len(row), len(sources)))
        for node, i in row.items():
            total = sum(edges[node].values())
            for succ, freq in edges[node].items():
                if succ in row:
                    q[i, row[succ]] = freq / total
                elif succ in column:
                    r[i, column[succ]] = freq / total
        # Which referencing phases each transient phase can reach: k
        # squarings cover paths of 2**k hops (0/1 counts, so a zero is
        # structural, not a cancellation).
        hop = np.eye(len(row)) + (q > 0.0)
        for _ in range(len(row).bit_length()):
            hop = np.minimum(hop @ hop, 1.0)
        reach = hop @ r > 0.0
        q[~reach.any(axis=1)] = 0.0
        x = np.linalg.solve(np.eye(len(row)) - q, r)
        shares = np.where(reach, x, 0.0).tolist()  # plain floats

    transitions: List[Tuple[int, int, float]] = []
    for src in sources:
        absorbed = [0.0] * len(sources)
        for succ, freq in edges[src].items():
            if succ in column:
                absorbed[column[succ]] += freq
            elif succ in row:
                for j, share in enumerate(shares[row[succ]]):
                    absorbed[j] += freq * share
        transitions.extend(
            (src, dst, freq) for dst, freq in zip(sources, absorbed)
            if freq > 0.0
        )
    return transitions


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
    # on the array (its local block size), and whether a candidate pair
    # remaps an array is read off the layouts' memoised identities.  The
    # accumulation order over ``array_freqs`` is that of the direct
    # loop, which keeps edge costs bitwise-equal to it.
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

    layout_edges: List[LayoutEdge] = []
    for (src, dst), array_freqs in sorted(per_edge.items()):
        edge = LayoutEdge(src_phase=src, dst_phase=dst)
        src_cands = estimates.per_phase[src]
        dst_cands = estimates.per_phase[dst]
        for i, src_cand in enumerate(src_cands):
            src_layout = src_cand.candidate.layout
            for j, dst_cand in enumerate(dst_cands):
                dst_layout = dst_cand.candidate.layout
                cost = 0.0
                for array, freq in array_freqs:
                    if needs_remap(src_layout, dst_layout, array):
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
