"""Decision provenance: report *why* each array got its layout.

The assistant's result is browsable: its search spaces, its data layout
graph and its 0-1 selection hold every decision the pipeline made.
This module reads them into a report answering the questions an HPF
programmer asks of the assistant:

- which candidate was selected for each phase, at what predicted cost,
  and by what margin over the runner-up;
- which alignment preferences (CAG edges) supported each array's
  orientation, and which were cut to resolve conflicts;
- which inter-class imports contributed candidates to the search space;
- where remapping was chosen, what it costs, and which arrays cross
  the remap edge.

From the run's trace it reads only what ran: every ILP solve with its
model size, every degradation note and the trace id.  The report is a
plain dict (JSON-safe) rendered to text by :func:`format_provenance`;
``repro explain`` prints it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..alignment.weights import build_phase_cag
from .events import iter_events, spans_by_name

if TYPE_CHECKING:
    from ..tool.assistant import AssistantResult

#: report format tag
PROVENANCE_SCHEMA = "repro.obs/provenance/v1"


def _resolution_path(conflict: Mapping[str, Any]) -> str:
    """How a conflict resolution was decided, from its ``path``."""
    path = conflict.get("path")
    if path == "direct":
        return (f"; unique optimum by enumeration, "
                f"{conflict.get('assignments')} assignments visited")
    if path == "tie":
        return (f"; chosen by the 0-1 solver among "
                f"{conflict.get('optima')} tied optimal cuts")
    if path == "overflow":
        return "; by the 0-1 solver, enumeration cap exceeded"
    return "; by the 0-1 solver"


def _node(node: Tuple[str, int]) -> str:
    return f"{node[0]}[{node[1]}]"


def build_provenance(
    result: "AssistantResult", trace: Mapping[str, Any]
) -> Dict[str, Any]:
    """The decision-provenance report of ``result``, whose run recorded
    ``trace``."""
    degradations = [
        {key: event.get("attrs", {}).get(key)
         for key in ("stage", "reason", "detail")}
        for _span, event in iter_events(trace, "resilience.degraded")
    ]
    ilp_solves = []
    for span in spans_by_name(trace, "ilp.solve"):
        attrs = span.get("attrs", {})
        ilp_solves.append({
            "name": attrs.get("name"),
            "backend": attrs.get("backend"),
            "variables": attrs.get("variables"),
            "constraints": attrs.get("constraints"),
            "nodes": attrs.get("nodes"),
            "status": attrs.get("status"),
            "objective": attrs.get("objective"),
            "duration_us": span.get("duration_us"),
        })

    arrays: Dict[str, Dict[str, Any]] = {}

    def array_entry(name: str) -> Dict[str, Any]:
        return arrays.setdefault(name, {
            "alignments": {},
            "cag_edges": [],
            "transitions": [],
            "remaps": [],
        })

    # -- the chosen candidate per phase ----------------------------------
    graph = result.graph
    selection = result.selection.selection
    distributions = len(result.layout_spaces.distributions)
    phases = []
    for phase, position in sorted(selection.items()):
        chosen = graph.estimates.per_phase[phase][position].candidate
        layout = chosen.layout
        costs = list(graph.node_costs[phase])
        others = costs[:position] + costs[position + 1:]
        generated = (len(result.alignment_spaces.per_phase[phase])
                     * distributions)
        kept = len(result.layout_spaces.per_phase[phase])
        phases.append({
            "phase": phase,
            "position": position,
            "layout": layout.describe(),
            "distribution": str(layout.distribution),
            "alignment_provenance": chosen.alignment.provenance,
            "node_cost_us": costs[position],
            "alternatives": len(others),
            "margin_us": min(others) - costs[position] if others else None,
            "candidate_costs_us": costs,
            "search_space": {"generated": generated,
                             "pruned": generated - kept, "kept": kept},
        })
        for name, alignment in layout.alignments:
            array_entry(name)["alignments"][str(phase)] = str(alignment)

    # -- supporting CAG evidence -----------------------------------------
    for phase in result.partition.phases:
        cag = build_phase_cag(phase, result.symbols)
        for (a, b), weight in sorted(cag.weights.items()):
            edge = {"phase": phase.index, "edge": f"{_node(a)}--{_node(b)}",
                    "weight": weight}
            array_entry(a[0])["cag_edges"].append(edge)
            array_entry(b[0])["cag_edges"].append(edge)

    spaces = result.alignment_spaces
    conflicts = [
        {"name": r.name, "cut_edges": list(r.cut_edges),
         "cut_weight": r.cut_weight, "path": r.path,
         "assignments": r.visits, "optima": r.optima}
        for r in spaces.resolutions if r.cut_edges
    ]
    imports = [
        {"source": source, "sink": sink, "accepted": accepted}
        for source, sink, accepted in spaces.imports
    ]

    # -- remapping decisions ---------------------------------------------
    transitions_of: Dict[Tuple[int, int], List[str]] = {}
    for name, edges in sorted(graph.transitions.items()):
        array_entry(name)["transitions"] = [list(t) for t in edges]
        for src, dst, _freq in edges:
            transitions_of.setdefault((src, dst), []).append(name)

    remaps = []
    for edge in graph.edges:
        src, dst = edge.src_phase, edge.dst_phase
        cost = edge.costs.get((selection[src], selection[dst]), 0.0)
        if cost <= 0.0:
            continue
        crossing = sorted(set(transitions_of.get((src, dst), [])))
        remaps.append({"src_phase": src, "dst_phase": dst,
                       "cost_us": cost, "arrays": crossing})
        for name in crossing:
            array_entry(name)["remaps"].append(
                {"src_phase": src, "dst_phase": dst, "cost_us": cost})

    return {
        "schema": PROVENANCE_SCHEMA,
        "trace_id": trace.get("trace_id"),
        "objective_us": result.selection.objective,
        "backend": result.config.ilp_backend,
        "optimal": not degradations,
        "degradations": degradations,
        "phases": phases,
        "arrays": {name: arrays[name] for name in sorted(arrays)},
        "conflicts": conflicts,
        "imports": imports,
        "remaps": remaps,
        "ilp_solves": ilp_solves,
    }


def _fmt_us(value: Optional[float]) -> str:
    if value is None:
        return "?"
    return f"{value / 1000.0:.3f} ms"


def format_provenance(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of a provenance report."""
    lines = [
        f"decision provenance — trace {report.get('trace_id', '?')}",
    ]
    if report.get("objective_us") is not None:
        lines.append(
            f"predicted total: {report['objective_us'] / 1e6:.4f} s "
            f"(selection backend: {report.get('backend', '?')})"
        )
    degradations = report.get("degradations", [])
    if degradations:
        lines.append(
            "DEGRADED result — not certified optimal "
            f"({len(degradations)} fallback decision(s)):"
        )
        for note in degradations:
            detail = f" — {note['detail']}" if note.get("detail") else ""
            lines.append(
                f"  {note.get('stage')}: {note.get('reason')}{detail}"
            )

    for phase in report.get("phases", []):
        space = phase.get("search_space") or {}
        space_txt = ""
        if space.get("generated") is not None:
            space_txt = (
                f"  [search space: {space['generated']} generated, "
                f"{space['pruned']} pruned, {space['kept']} kept]"
            )
        margin = phase.get("margin_us")
        margin_txt = (
            f", margin {_fmt_us(margin)} over runner-up"
            if margin is not None else ""
        )
        lines.append(
            f"phase {phase['phase']}: candidate c{phase['position']} "
            f"at {_fmt_us(phase.get('node_cost_us'))} "
            f"({phase.get('alternatives', 0)} alternatives{margin_txt})"
            f"{space_txt}"
        )
        if phase.get("layout"):
            for row in str(phase["layout"]).splitlines():
                lines.append(f"    {row}")
        if phase.get("alignment_provenance"):
            lines.append(
                f"    alignment source: {phase['alignment_provenance']}"
            )

    arrays = report.get("arrays", {})
    if arrays:
        lines.append("arrays:")
    for name, info in arrays.items():
        alignments = info.get("alignments", {})
        distinct = sorted(set(alignments.values()))
        if len(distinct) == 1:
            align_txt = f"aligned {distinct[0]} in every phase"
        elif distinct:
            per_phase = ", ".join(
                f"phase {p}: {a}" for p, a in sorted(
                    alignments.items(), key=lambda kv: str(kv[0])
                )
            )
            align_txt = f"alignment varies ({per_phase})"
        else:
            align_txt = "no recorded alignment"
        lines.append(f"  {name}: {align_txt}")
        edges = sorted(
            info.get("cag_edges", []),
            key=lambda e: -(e.get("weight") or 0.0),
        )
        for edge in edges[:4]:
            lines.append(
                f"      CAG support: {edge['edge']} "
                f"w={edge.get('weight'):g} (phase {edge.get('phase')})"
            )
        for remap in info.get("remaps", []):
            lines.append(
                f"      remapped phase {remap['src_phase']} -> "
                f"{remap['dst_phase']} at {_fmt_us(remap.get('cost_us'))}"
            )

    conflicts = report.get("conflicts", [])
    if conflicts:
        lines.append("conflict resolutions (minimum-weight edge cuts):")
        for conflict in conflicts:
            cut = ", ".join(conflict.get("cut_edges", [])) or "(none)"
            lines.append(
                f"  {conflict.get('name')}: cut {cut} "
                f"(weight {conflict.get('cut_weight')}"
                f"{_resolution_path(conflict)})"
            )

    imports = report.get("imports", [])
    accepted = [i for i in imports if i.get("accepted")]
    if imports:
        lines.append(
            f"alignment imports: {len(accepted)} accepted, "
            f"{len(imports) - len(accepted)} rejected as weaker-or-equal"
        )
        for imp in accepted:
            lines.append(f"  {imp.get('source')} -> {imp.get('sink')}")

    remaps = report.get("remaps", [])
    if remaps:
        lines.append("remapping decisions:")
        for remap in remaps:
            crossing = ", ".join(remap.get("arrays", [])) or "?"
            lines.append(
                f"  phase {remap['src_phase']} -> {remap['dst_phase']} "
                f"at {_fmt_us(remap.get('cost_us'))} (arrays: {crossing})"
            )
    elif report.get("phases"):
        lines.append("remapping decisions: none (static layout)")

    solves = report.get("ilp_solves", [])
    if solves:
        largest = max(solves, key=lambda s: s.get("variables") or 0)
        lines.append(
            f"ILP solves: {len(solves)} total; largest "
            f"{largest.get('name')!r} with {largest.get('variables')} "
            f"variables x {largest.get('constraints')} constraints"
        )
        for solve in solves:
            lines.append(
                f"  {solve.get('name')}: {solve.get('variables')} vars, "
                f"{solve.get('constraints')} cons, "
                f"{solve.get('status')} in "
                f"{_fmt_us(solve.get('duration_us'))}"
            )
    return "\n".join(lines)
