"""Phase control flow graph (PCFG) construction (paper Section 2.1).

The PCFG is an augmented control flow graph with one node per phase,
annotated with branch probabilities and loop control information.  Here
that information is *resolved into expected execution frequencies*:

* each phase node carries ``freq`` — the expected number of executions of
  the phase per program run;
* each edge ``(p, q)`` carries ``freq`` — the expected number of direct
  control transfers from phase ``p`` to phase ``q`` (this prices dynamic
  remapping between the two phases in the selection step).

Loop back-edges are real phase-to-phase edges: the last phase of a
control-loop body transfers to the first phase ``trips - 1`` times per loop
entry, which is exactly where remapping inside an iterative solver hurts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .phases import (
    Branch,
    ControlLoop,
    Phase,
    PhaseItem,
    PhasePartition,
    ScalarItem,
    Seq,
)

ENTRY = "entry"
EXIT = "exit"

#: Minimum edge frequency kept in the graph; pure-zero paths are dropped.
_EPS = 1e-12


class PhaseGraph:
    """The PCFG's nodes and edges as an insertion-ordered adjacency map.

    ``freq[node]`` is a node's expected executions (0.0 for the entry and
    the exit), ``phase[index]`` the phase of a phase node, and
    ``succ[node]`` maps each successor to the edge's frequency.  Both
    orders are part of the answer: successor order is the DFS order of
    :meth:`PCFG.reverse_postorder` and the order in which the selection
    step sums out-edge frequencies.
    """

    __slots__ = ("freq", "phase", "succ")

    def __init__(self) -> None:
        self.freq: Dict[object, float] = {}
        self.phase: Dict[int, Phase] = {}
        self.succ: Dict[object, Dict[object, float]] = {}

    def add_node(self, node, phase: Optional[Phase] = None) -> None:
        if node not in self.succ:
            self.freq[node] = 0.0
            self.succ[node] = {}
        if phase is not None:
            self.phase[node] = phase

    def add_edge(self, src, dst, freq: float) -> None:
        """Add ``freq`` to the edge ``src -> dst``, adding either end
        (source first) if it is not yet a node."""
        self.add_node(src)
        self.add_node(dst)
        row = self.succ[src]
        row[dst] = row[dst] + freq if dst in row else freq

    def remove_node(self, node) -> Dict[object, float]:
        """Remove ``node`` and its edges, if it is a node; returns its
        out-edges."""
        for row in self.succ.values():
            row.pop(node, None)
        self.freq.pop(node, None)
        self.phase.pop(node, None)
        return self.succ.pop(node, {})

    def number_of_edges(self) -> int:
        # Kept under its networkx name for bench/toolrun.py, which reads
        # it as ``analysis.pcfg_edges`` on every traced op.
        return sum(len(row) for row in self.succ.values())


@dataclass
class PCFG:
    """The phase graph and the partition it was built from, with typed
    accessors."""

    graph: PhaseGraph
    partition: PhasePartition

    @property
    def phase_indices(self) -> List[int]:
        return sorted(n for n in self.graph.succ if isinstance(n, int))

    def phase(self, index: int) -> Optional[Phase]:
        return self.graph.phase.get(index)

    def phase_frequency(self, index: int) -> float:
        return self.graph.freq.get(index, 0.0)

    def edges(self) -> List[Tuple[object, object, float]]:
        """Every edge ``(src, dst, freq)``, entry and exit included, in
        node then successor order."""
        return [
            (src, dst, freq)
            for src, row in self.graph.succ.items()
            for dst, freq in row.items()
        ]

    def transitions(self) -> List[Tuple[int, int, float]]:
        """Phase-to-phase edges ``(src, dst, freq)``."""
        return [
            (u, v, f) for u, v, f in self.edges()
            if isinstance(u, int) and isinstance(v, int)
        ]

    def reverse_postorder(self) -> List[int]:
        """Phase indices in reverse postorder of a DFS from the entry —
        the visit order of the alignment search-space heuristic.  The DFS
        takes successors in insertion order."""
        succ = self.graph.succ
        postorder: List[object] = []
        visited = {ENTRY}
        stack = [(ENTRY, iter(succ[ENTRY]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in visited:
                    visited.add(child)
                    stack.append((child, iter(succ[child])))
                    break
            else:
                stack.pop()
                postorder.append(node)
        return [n for n in reversed(postorder) if isinstance(n, int)]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = ["PCFG:"]
        for idx in self.phase_indices:
            lines.append(f"  phase {idx}: freq={self.phase_frequency(idx):.1f}")
        for u, v, f in self.transitions():
            lines.append(f"  {u} -> {v}: freq={f:.1f}")
        return "\n".join(lines)


def build_pcfg(partition: PhasePartition) -> PCFG:
    """Build the PCFG from a phase partition's structure tree.

    Works with *port lists*: a port list is ``[(node, freq), ...]`` — the
    places control may be coming from, with expected frequencies.  Regions
    with no phases are transparent (their incoming ports flow through).
    """
    graph = PhaseGraph()
    graph.add_node(ENTRY)
    graph.add_node(EXIT)
    for phase in partition.phases:
        graph.add_node(phase.index, phase)

    def add_edge(src, dst, freq: float) -> None:
        if freq > _EPS:
            graph.add_edge(src, dst, freq)

    def process_seq(seq: Seq, incoming: List[Tuple[object, float]]):
        ports = incoming
        for item in seq.items:
            ports = process_item(item, ports)
        return ports

    def process_item(item, incoming):
        if isinstance(item, ScalarItem):
            return incoming  # transparent
        if isinstance(item, PhaseItem):
            idx = item.phase.index
            total = 0.0
            for src, freq in incoming:
                add_edge(src, idx, freq)
                total += freq
            graph.freq[idx] += total
            return [(idx, total)]
        if isinstance(item, Branch):
            then_in = [(s, f * item.prob) for s, f in incoming]
            else_in = [(s, f * (1.0 - item.prob)) for s, f in incoming]
            then_out = process_seq(item.then_body, then_in)
            else_out = process_seq(item.else_body, else_in)
            return _merge_ports(then_out + else_out)
        if isinstance(item, ControlLoop):
            return process_loop(item, incoming)
        raise TypeError(f"unknown structure item {item!r}")

    def process_loop(item: ControlLoop, incoming):
        trips = item.trips
        if trips <= 0 or not _seq_has_phases(item.body):
            # Zero-trip loops and loops without phases are transparent.
            return incoming
        total_in = sum(f for _, f in incoming)
        if total_in <= _EPS:
            return incoming
        # Process the body once with a placeholder source carrying the
        # back-edge mass; afterwards re-point placeholder edges from the
        # body's actual exit ports.
        placeholder = object()
        body_in = list(incoming) + [(placeholder, total_in * (trips - 1))]
        body_out = process_seq(item.body, body_in)

        # Ports still referencing the placeholder describe no-phase paths
        # through the body; fold their mass into the real exits.
        real_out = [(s, f) for s, f in body_out if s is not placeholder]
        leak = sum(f for s, f in body_out if s is placeholder)
        out_total = sum(f for _, f in real_out)
        if out_total <= _EPS:
            return incoming
        if leak > _EPS:
            real_out = [
                (s, f * (out_total + leak) / out_total) for s, f in real_out
            ]
            out_total += leak

        # Re-point placeholder edges: back-edge mass flows from exits.
        # A one-trip loop has no back-edge mass, so no placeholder node.
        for head, head_freq in graph.remove_node(placeholder).items():
            for exit_node, exit_freq in real_out:
                add_edge(exit_node, head, head_freq * exit_freq / out_total)

        # One of ``trips`` body completions continues past the loop.
        return [(s, f / trips) for s, f in real_out]

    final_ports = process_seq(partition.structure, [(ENTRY, 1.0)])
    for src, freq in final_ports:
        add_edge(src, EXIT, freq)
    return PCFG(graph=graph, partition=partition)


def _merge_ports(ports):
    merged: Dict[object, float] = {}
    order: List[object] = []
    for node, freq in ports:
        if node not in merged:
            merged[node] = 0.0
            order.append(node)
        merged[node] += freq
    return [(node, merged[node]) for node in order]


def _seq_has_phases(seq: Seq) -> bool:
    for item in seq.items:
        if isinstance(item, PhaseItem):
            return True
        if isinstance(item, ControlLoop) and _seq_has_phases(item.body):
            return True
        if isinstance(item, Branch) and (
            _seq_has_phases(item.then_body) or _seq_has_phases(item.else_body)
        ):
            return True
    return False
