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
from typing import Dict, List, Sequence, Set, Tuple

from ..analysis.pcfg import EXIT, PCFG
from ..analysis.phases import Phase
from ..distribution.layouts import placement_codes, remapped
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
    edges = pcfg.graph.succ
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

    shares = _shares(edges, row, column) if row else {}
    transitions: List[Tuple[int, int, float]] = []
    for src in sources:
        absorbed = [0.0] * len(sources)
        for succ, freq in edges[src].items():
            if succ in column:
                absorbed[column[succ]] += freq
            elif succ in row:
                for j, share in shares.get(succ, ()):
                    absorbed[j] += freq * share
        transitions.extend(
            (src, dst, freq) for dst, freq in zip(sources, absorbed)
            if freq > 0.0
        )
    return transitions


def _shares(
    edges: Dict[object, Dict[object, float]],
    row: Dict[object, int],
    column: Dict[object, int],
) -> Dict[object, List[Tuple[int, float]]]:
    """Per transient phase of ``row``, its nonzero entries of ``X`` as
    ``(column, share)`` pairs, a share kept only where a path exists.

    ``[I - Q | R]`` is built as sparse rows, ``R``'s column ``j`` at key
    ``len(row) + j``.  Which referencing phases a transient phase reaches
    is a backward search over the positive edges.  A phase that reaches
    none loses all its mass: its row becomes the identity row, which
    keeps ``I - Q`` non-singular, and it gets no shares."""
    n = len(row)
    system: List[Dict[int, float]] = []
    #: transient phase -> the transient phases with a positive edge to it
    into: List[List[int]] = [[] for _ in range(n)]
    #: bit ``j``: the phase reaches referencing phase ``j`` (in one hop,
    #: then, after the search, by any path)
    reach = [0] * n
    for node, i in row.items():
        total = sum(edges[node].values())
        entries = {i: 1.0}
        for succ, freq in edges[node].items():
            share = freq / total
            j = row.get(succ)
            if j is not None:
                entries[j] = (1.0 if j == i else 0.0) - share
                if share > 0.0:
                    into[j].append(i)
            elif succ in column:
                entries[n + column[succ]] = share
                if share > 0.0:
                    reach[i] |= 1 << column[succ]
        system.append(entries)
    pending = [i for i in range(n) if reach[i]]
    if not pending:
        return {}
    while pending:
        i = pending.pop()
        for h in into[i]:
            if reach[i] & ~reach[h]:
                reach[h] |= reach[i]
                pending.append(h)
    for i in range(n):
        if not reach[i]:
            system[i] = {i: 1.0}
    solution = _solve(system, n)
    return {
        node: [(j - n, x) for j, x in solution[i].items()
               if reach[i] >> (j - n) & 1]
        for node, i in row.items() if reach[i]
    }


def _solve(system: List[Dict[int, float]], n: int) -> List[Dict[int, float]]:
    """Solve the ``n`` sparse augmented rows of ``system`` (right-hand
    sides at keys ``>= n``) in place, in LAPACK ``dgesv``'s order: LU
    with partial pivoting, the first largest pivot by row position,
    multipliers and solution scaled by the pivot's reciprocal, then back
    substitution column by column.  Returns each unknown's solution as
    ``{key: value}`` over the right-hand-side keys.

    Only the entries a row holds are stored and updated, and each column
    keeps the rows that hold it: on these rows (about two entries each)
    the work is the fill-in, not ``n**2``."""
    #: column -> rows not yet pivoted with an entry in it
    live: List[Set[int]] = [set() for _ in range(n)]
    for i, entries in enumerate(system):
        for j in entries:
            if j < n:
                live[j].add(i)
    #: the row at each position, and each row's position
    at = list(range(n))
    position = list(range(n))
    #: column -> pivot rows with an entry in it
    above: List[List[int]] = [[] for _ in range(n)]
    pivots: List[Tuple[int, float]] = []
    for k in range(n):
        rows = live[k]
        if len(rows) == 1:
            pivot = rows.pop()
        else:
            pivot = max(rows, key=lambda i: (abs(system[i][k]), -position[i]))
            rows.discard(pivot)
        where = position[pivot]
        if where != k:
            at[where] = at[k]
            position[at[k]] = where
            at[k], position[pivot] = pivot, k
        entries = system[pivot]
        inv = 1.0 / entries[k]
        tail = [(j, u) for j, u in entries.items() if j > k]
        for j, _u in tail:
            if j < n:
                live[j].discard(pivot)
                above[j].append(pivot)
        for i in rows:
            target = system[i]
            factor = target.pop(k) * inv
            for j, u in tail:
                value = target.get(j)
                if value is None:
                    target[j] = 0.0 - factor * u
                    if j < n:
                        live[j].add(i)
                else:
                    target[j] = value - factor * u
        pivots.append((pivot, inv))

    solution: List[Dict[int, float]] = [{} for _ in range(n)]
    for k in reversed(range(n)):
        pivot, inv = pivots[k]
        x = solution[k] = {
            j: value * inv for j, value in system[pivot].items() if j >= n
        }
        for i in above[k]:
            target = system[i]
            u = target[k]
            for j, value in x.items():
                target[j] = target.get(j, 0.0) - value * u
    return solution


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
    phase_arrays: Dict[int, List[str]] = {}
    for phase in phases:
        for array in phase.arrays:
            if isinstance(symbols.get(array), ArraySymbol):
                referencing.setdefault(array, set()).add(phase.index)
                phase_arrays.setdefault(phase.index, []).append(array)

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
    # on the array (its local block size), and which candidate pairs
    # remap an array is read off the placement codes of each (phase,
    # array).  Remap costs are never negative, so a pair is priced
    # exactly when an array of positive weight moves, and its cost sums
    # ``freq * remap cost`` over those arrays in ``array_freqs`` order
    # (``0.0 + w1 + w2 ...``): the direct loop over ``needs_remap``,
    # bit for bit.  Pairs enter in row-major order, as that loop put
    # them, re-sorted when a second array adds pairs.
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

    numbering: Dict[Tuple, int] = {}
    placements = {
        phase_index: placement_codes(
            [e.candidate.layout for e in estimates.per_phase[phase_index]],
            arrays, numbering,
        )
        for phase_index, arrays in sorted(phase_arrays.items())
    }

    layout_edges: List[LayoutEdge] = []
    for (src, dst), array_freqs in sorted(per_edge.items()):
        costs: Dict[Tuple[int, int], float] = {}
        priced = 0
        for array, freq in array_freqs:
            moves = remapped(placements[src][array][0],
                             placements[dst][array][1])
            if not any(moves):
                continue
            weight = freq * array_remap_cost(array)
            if weight <= 0.0:
                continue
            priced += 1
            for i, moved in enumerate(moves):
                for j in moved:
                    costs[i, j] = costs.get((i, j), 0.0) + weight
        if costs:
            if priced > 1:
                costs = dict(sorted(costs.items()))
            layout_edges.append(LayoutEdge(src, dst, costs))

    return DataLayoutGraph(
        phases=phases,
        pcfg=pcfg,
        estimates=estimates,
        node_costs=node_costs,
        edges=layout_edges,
        transitions=transitions,
    )
