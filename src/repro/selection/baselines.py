"""Baseline layout selectors, for the ablation benchmarks.

* :func:`greedy_selection` — pick each phase's locally cheapest candidate
  and ignore remapping costs (then account for them honestly when
  evaluating);
* :func:`static_selections` — the best *static* layout: one distribution
  for the whole program (per-phase candidates restricted to a single
  distribution signature), no remapping;
* :func:`dp_selection` — exact dynamic programming over the program-order
  phase chain; optimal whenever every remap edge connects consecutive
  phases in that order (straight-line programs such as Erlebacher), a
  heuristic otherwise.

All return ``(selection, cost)`` with costs from the shared
:meth:`DataLayoutGraph.evaluate`, so they are directly comparable with the
0-1 optimum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .layout_graph import DataLayoutGraph


def greedy_selection(graph: DataLayoutGraph) -> Tuple[Dict[int, int], float]:
    """Locally cheapest candidate per phase (remap-blind)."""
    selection = {
        phase_index: min(range(len(costs)), key=lambda c: costs[c])
        for phase_index, costs in graph.node_costs.items()
    }
    return selection, graph.evaluate(selection)


def static_selections(
    graph: DataLayoutGraph,
) -> List[Tuple[Tuple, Dict[int, int], float]]:
    """For every distribution signature available in *all* phases, the
    cheapest phase-wise choice restricted to it.  Returns a list of
    ``(signature, selection, cost)`` sorted by cost."""
    # Signatures available per phase.
    per_phase_sigs: Dict[int, Dict[Tuple, List[int]]] = {}
    for phase_index, cands in graph.estimates.per_phase.items():
        sigs: Dict[Tuple, List[int]] = {}
        for pos, cand in enumerate(cands):
            sigs.setdefault(
                cand.candidate.layout.distribution.signature, []
            ).append(pos)
        per_phase_sigs[phase_index] = sigs
    common = None
    for sigs in per_phase_sigs.values():
        keys = set(sigs)
        common = keys if common is None else (common & keys)
    results = []
    for sig in sorted(common or ()):
        selection = {}
        for phase_index, sigs in per_phase_sigs.items():
            positions = sigs[sig]
            costs = graph.node_costs[phase_index]
            selection[phase_index] = min(positions, key=lambda c: costs[c])
        results.append((sig, selection, graph.evaluate(selection)))
    results.sort(key=lambda r: r[2])
    return results


def best_static_selection(
    graph: DataLayoutGraph,
) -> Tuple[Dict[int, int], float]:
    """The cheapest fully static layout."""
    results = static_selections(graph)
    if not results:
        return greedy_selection(graph)
    _sig, selection, cost = results[0]
    return selection, cost


def dp_selection(graph: DataLayoutGraph) -> Tuple[Dict[int, int], float]:
    """Dynamic programming over the program-order chain of phases.

    Edge costs between non-consecutive phases (per-array gaps, loop
    back-edges) are folded in afterwards by the shared evaluator, so the
    reported cost is honest even where the chain assumption breaks.
    """
    order = sorted(graph.node_costs)
    if not order:
        return {}, 0.0
    # Consecutive-phase edge lookup.
    edge_costs: Dict[Tuple[int, int], Dict[Tuple[int, int], float]] = {}
    for edge in graph.edges:
        edge_costs.setdefault((edge.src_phase, edge.dst_phase), {}).update(
            edge.costs
        )

    first = order[0]
    table: List[Dict[int, Tuple[float, Optional[int]]]] = []
    table.append(
        {c: (cost, None) for c, cost in enumerate(graph.node_costs[first])}
    )
    for pos in range(1, len(order)):
        prev_phase, phase = order[pos - 1], order[pos]
        pair_costs = edge_costs.get((prev_phase, phase), {})
        row: Dict[int, Tuple[float, Optional[int]]] = {}
        for cand, node_cost in enumerate(graph.node_costs[phase]):
            best = None
            for prev_cand, (prev_cost, _) in table[-1].items():
                total = prev_cost + node_cost + pair_costs.get(
                    (prev_cand, cand), 0.0
                )
                if best is None or total < best[0]:
                    best = (total, prev_cand)
            row[cand] = best
        table.append(row)
    # Backtrack.
    last_cand = min(table[-1], key=lambda c: table[-1][c][0])
    selection = {order[-1]: last_cand}
    for pos in range(len(order) - 1, 0, -1):
        last_cand = table[pos][last_cand][1]
        selection[order[pos - 1]] = last_cand
    return selection, graph.evaluate(selection)
