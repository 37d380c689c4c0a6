"""The direct remap-edge loop that ``selection.layout_graph`` ran before
it priced edges from placement codes, kept as a test oracle only.

Every candidate pair of every edge asks ``needs_remap`` about every
array the edge carries and sums ``freq * remap cost`` over the arrays
that move, in ``array_freqs`` order.
"""

from typing import Dict, List, Tuple

from repro.distribution.layouts import needs_remap
from repro.selection.layout_graph import DataLayoutGraph, LayoutEdge


def direct_edges(graph: DataLayoutGraph, symbols, db,
                 nprocs: int) -> List[LayoutEdge]:
    """``graph.edges`` rebuilt from its transitions by the direct loop;
    ``symbols``, ``db`` and ``nprocs`` are those the graph was built
    with."""
    per_edge: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
    for array, edges in graph.transitions.items():
        for src, dst, freq in edges:
            per_edge.setdefault((src, dst), []).append((array, freq))

    def array_remap_cost(array: str) -> float:
        local = max(symbols.array(array).total_bytes // nprocs, 1)
        return db.predict("transpose", nprocs, local, stride="nonunit",
                          latency="high")

    out: List[LayoutEdge] = []
    for (src, dst), array_freqs in sorted(per_edge.items()):
        edge = LayoutEdge(src_phase=src, dst_phase=dst)
        for i, src_cand in enumerate(graph.estimates.per_phase[src]):
            src_layout = src_cand.candidate.layout
            for j, dst_cand in enumerate(graph.estimates.per_phase[dst]):
                dst_layout = dst_cand.candidate.layout
                cost = 0.0
                for array, freq in array_freqs:
                    if needs_remap(src_layout, dst_layout, array):
                        cost += freq * array_remap_cost(array)
                if cost > 0.0:
                    edge.costs[(i, j)] = cost
        if edge.costs:
            out.append(edge)
    return out
