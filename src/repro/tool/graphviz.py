"""Graphviz (DOT) export of the framework's graph structures.

The envisioned assistant is interactive; rendering the phase control flow
graph and the data layout graph is how a user *sees* why a dynamic layout
was (or wasn't) chosen.  These emitters produce plain DOT text — feed to
``dot -Tsvg`` or any graphviz viewer.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.pcfg import ENTRY, EXIT, PCFG
from ..selection.layout_graph import DataLayoutGraph
from .assistant import AssistantResult


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def pcfg_to_dot(pcfg: PCFG) -> str:
    """The phase control flow graph: nodes labelled with frequencies,
    edges with expected transition counts."""
    lines = [
        'digraph "PCFG" {',
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
        f"  {_quote(str(ENTRY))} [shape=circle];",
        f"  {_quote(str(EXIT))} [shape=doublecircle];",
    ]
    for idx in pcfg.phase_indices:
        phase = pcfg.phase(idx)
        label = f"phase {idx}"
        if phase is not None:
            label += f"\\ndo {phase.loop_var} (line {phase.line})"
        label += f"\\nfreq {pcfg.phase_frequency(idx):g}"
        lines.append(f"  {idx} [label={_quote(label)}];")
    for u, v, freq in pcfg.edges():
        label = f"{freq:g}"
        lines.append(
            f"  {_quote(str(u))} -> {_quote(str(v))} "
            f"[label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def layout_graph_to_dot(
    graph: DataLayoutGraph,
    selection: Optional[Dict[int, int]] = None,
) -> str:
    """The data layout graph: one node per candidate (selected candidates
    highlighted), remapping edges labelled with their costs."""
    lines = [
        'digraph "DataLayoutGraph" {',
        "  rankdir=LR;",
        '  node [shape=record, fontname="monospace"];',
    ]
    for phase_index, costs in sorted(graph.node_costs.items()):
        lines.append(f"  subgraph cluster_{phase_index} {{")
        lines.append(f"    label={_quote(f'phase {phase_index}')};")
        for cand, cost in enumerate(costs):
            node = f"p{phase_index}c{cand}"
            estimate = graph.estimates.per_phase[phase_index][cand]
            dist = estimate.candidate.layout.distribution
            label = f"c{cand} {dist}|{cost / 1000.0:.2f} ms"
            attrs = f"label={_quote(label)}"
            if selection is not None and selection.get(phase_index) == cand:
                attrs += ', style=filled, fillcolor="palegreen"'
            lines.append(f"    {node} [{attrs}];")
        lines.append("  }")
    for edge in graph.edges:
        for (i, j), cost in sorted(edge.costs.items()):
            src = f"p{edge.src_phase}c{i}"
            dst = f"p{edge.dst_phase}c{j}"
            attrs = f"label={_quote(f'{cost / 1000.0:.2f} ms')}"
            if selection is not None and (
                selection.get(edge.src_phase) == i
                and selection.get(edge.dst_phase) == j
            ):
                attrs += ', color="red", penwidth=2'
            lines.append(f"  {src} -> {dst} [{attrs}];")
    lines.append("}")
    return "\n".join(lines)


def export_dot(result: AssistantResult) -> Dict[str, str]:
    """Both graphs of an assistant run, keyed by suggested file name."""
    return {
        "pcfg.dot": pcfg_to_dot(result.pcfg),
        "layout_graph.dot": layout_graph_to_dot(
            result.graph, result.selection.selection
        ),
    }
