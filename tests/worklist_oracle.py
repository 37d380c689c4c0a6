"""The packet-chasing worklist that ``selection.layout_graph`` used before
the linear solve, kept as a test oracle only.

Every referencing phase emits its out-edge frequencies as packets; a
packet in a non-referencing phase is split over that phase's out-edges
until it is absorbed by a referencing phase, lost at the exit, or falls
below ``MASS_EPS`` of the source's out-frequency and is dropped.  On a
PCFG whose non-referencing phases form no cycle no packet is ever
dropped for size alone, so the result is exact (up to summation order);
on a cyclic one the dropped tail makes it a lower bound, and the number
of packets can grow exponentially — callers bound ``max_pops``.
"""

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.analysis.pcfg import EXIT, PCFG

MASS_EPS = 1e-9


class WorklistGaveUp(Exception):
    """More than ``max_pops`` packets: the exponential corner."""


def worklist_transitions(
    pcfg: PCFG,
    referencing: Dict[str, set],
    max_pops: Optional[int] = None,
) -> Dict[str, List[Tuple[int, int, float]]]:
    graph = pcfg.graph
    pops = 0
    out: Dict[str, List[Tuple[int, int, float]]] = {}
    for array, refs in referencing.items():
        transitions: Dict[Tuple[int, int], float] = {}
        for src in sorted(refs):
            if src not in graph:
                continue
            worklist: List[Tuple[object, float]] = [
                (v, data["freq"])
                for _, v, data in graph.out_edges(src, data=True)
            ]
            initial = sum(m for _, m in worklist) or 1.0
            guard = MASS_EPS * initial
            while worklist:
                node, mass = worklist.pop()
                pops += 1
                if max_pops is not None and pops > max_pops:
                    raise WorklistGaveUp(array)
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


def non_referencing_cycle(pcfg: PCFG, refs: set) -> bool:
    """Whether the phases outside ``refs`` contain a cycle (self-loops
    included) — where the worklist is a lower bound, not exact."""
    rest = pcfg.graph.subgraph(
        n for n in pcfg.graph.nodes if n not in refs
    )
    return not nx.is_directed_acyclic_graph(rest)
