"""Decision provenance: reconstruct *why* each array got its layout.

The pipeline records its decisions as structured span events while it
runs (CAG edge weights, conflict resolutions, alignment imports,
candidate costs, ILP solves, remapping choices).  This module replays a
recorded trace into a report answering the questions an HPF programmer
asks of the assistant:

- which candidate was selected for each phase, at what predicted cost,
  and by what margin over the runner-up;
- which alignment preferences (CAG edges) supported each array's
  orientation, and which were cut to resolve conflicts;
- which inter-class imports contributed candidates to the search space;
- where remapping was chosen, what it costs, and which arrays cross
  the remap edge;
- every ILP solve behind those answers, with model sizes.

The report is a plain dict (JSON-safe) rendered to text by
:func:`format_provenance`; ``repro explain`` prints it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from .events import iter_events, spans_by_name

#: report format tag
PROVENANCE_SCHEMA = "repro.obs/provenance/v1"


def _array_of(node_text: str) -> str:
    """``"a[0]"`` -> ``"a"``."""
    return node_text.partition("[")[0]


def _resolution_path(conflict: Mapping[str, Any]) -> str:
    """How a conflict resolution was decided, from the ``path`` of its
    ``alignment.resolve`` span."""
    path = conflict.get("path")
    if path is None:  # a trace recorded before the span carried it
        return ""
    if path == "direct":
        return (f"; unique optimum by enumeration, "
                f"{conflict.get('assignments')} assignments visited")
    if path == "tie":
        return (f"; chosen by the 0-1 solver among "
                f"{conflict.get('optima')} tied optimal cuts")
    if path == "overflow":
        return "; by the 0-1 solver, enumeration cap exceeded"
    return "; by the 0-1 solver"


def build_provenance(trace: Mapping[str, Any]) -> Dict[str, Any]:
    """Distill a recorded trace into the decision-provenance report."""
    report: Dict[str, Any] = {
        "schema": PROVENANCE_SCHEMA,
        "trace_id": trace.get("trace_id"),
        "objective_us": None,
        "backend": None,
        "optimal": True,
        "degradations": [],
        "phases": [],
        "arrays": {},
        "conflicts": [],
        "imports": [],
        "remaps": [],
        "ilp_solves": [],
    }

    # -- degradation notes (anytime-ILP fallbacks) -----------------------
    for _span, event in iter_events(trace, "resilience.degraded"):
        attrs = event.get("attrs", {})
        report["degradations"].append({
            "stage": attrs.get("stage"),
            "reason": attrs.get("reason"),
            "detail": attrs.get("detail"),
        })
    report["optimal"] = not report["degradations"]

    # -- global selection facts ------------------------------------------
    for span in spans_by_name(trace, "selection.solve"):
        attrs = span.get("attrs", {})
        if "objective_us" in attrs:
            report["objective_us"] = attrs["objective_us"]
        report["backend"] = attrs.get("backend", report["backend"])

    for span in spans_by_name(trace, "ilp.solve"):
        attrs = span.get("attrs", {})
        report["ilp_solves"].append({
            "name": attrs.get("name"),
            "backend": attrs.get("backend"),
            "variables": attrs.get("variables"),
            "constraints": attrs.get("constraints"),
            "nodes": attrs.get("nodes"),
            "status": attrs.get("status"),
            "objective": attrs.get("objective"),
            "duration_us": span.get("duration_us"),
        })

    # -- search-space shape per phase ------------------------------------
    space_by_phase: Dict[int, Dict[str, Any]] = {}
    for span in spans_by_name(trace, "distribution.phase"):
        attrs = span.get("attrs", {})
        if "phase" in attrs:
            space_by_phase[attrs["phase"]] = {
                "generated": attrs.get("generated"),
                "pruned": attrs.get("pruned"),
                "kept": attrs.get("kept"),
            }

    # -- the chosen candidate per phase ----------------------------------
    arrays: Dict[str, Dict[str, Any]] = {}

    def array_entry(name: str) -> Dict[str, Any]:
        return arrays.setdefault(name, {
            "alignments": {},
            "cag_edges": [],
            "transitions": [],
            "remaps": [],
        })

    for _span, event in iter_events(trace, "selection.choice"):
        attrs = event.get("attrs", {})
        phase = attrs.get("phase")
        costs = attrs.get("costs_us") or []
        chosen = attrs.get("node_cost_us")
        margin = None
        if chosen is not None and len(costs) > 1:
            others = sorted(c for i, c in enumerate(costs)
                            if i != attrs.get("position"))
            if others:
                margin = others[0] - chosen
        report["phases"].append({
            "phase": phase,
            "position": attrs.get("position"),
            "layout": attrs.get("layout"),
            "distribution": attrs.get("distribution"),
            "alignment_provenance": attrs.get("alignment_provenance"),
            "node_cost_us": chosen,
            "alternatives": max(len(costs) - 1, 0),
            "margin_us": margin,
            "candidate_costs_us": costs,
            "search_space": space_by_phase.get(phase),
        })
        for name, alignment in (attrs.get("alignments") or {}).items():
            array_entry(name)["alignments"][str(phase)] = alignment
    report["phases"].sort(key=lambda p: (p["phase"] is None, p["phase"]))

    # -- supporting CAG evidence -----------------------------------------
    for _span, event in iter_events(trace, "cag.edge"):
        attrs = event.get("attrs", {})
        edge = {
            "phase": attrs.get("phase"),
            "edge": f"{attrs.get('src')}--{attrs.get('dst')}",
            "weight": attrs.get("weight"),
        }
        for end in ("src", "dst"):
            name = _array_of(str(attrs.get(end, "")))
            if name:
                array_entry(name)["cag_edges"].append(edge)

    for span, event in iter_events(trace, "alignment.cut"):
        attrs = event.get("attrs", {})
        # the enclosing span is the resolution's alignment.resolve
        resolve = (span or {}).get("attrs", {})
        report["conflicts"].append({
            "name": attrs.get("name"),
            "cut_edges": attrs.get("cut_edges", []),
            "cut_weight": attrs.get("cut_weight"),
            "path": resolve.get("path"),
            "assignments": resolve.get("assignments"),
            "optima": resolve.get("optima"),
        })

    for _span, event in iter_events(trace, "alignment.import"):
        attrs = event.get("attrs", {})
        report["imports"].append({
            "source": attrs.get("source"),
            "sink": attrs.get("sink"),
            "accepted": attrs.get("accepted"),
        })

    # -- remapping decisions ---------------------------------------------
    transitions_of: Dict[Tuple[Any, Any], List[str]] = {}
    for _span, event in iter_events(trace, "graph.transitions"):
        attrs = event.get("attrs", {})
        name = attrs.get("array")
        if not name:
            continue
        entry = array_entry(name)
        entry["transitions"] = attrs.get("transitions", [])
        for src, dst, _freq in entry["transitions"]:
            transitions_of.setdefault((src, dst), []).append(name)

    for _span, event in iter_events(trace, "selection.remap"):
        attrs = event.get("attrs", {})
        if not attrs.get("remapped"):
            continue
        src = attrs.get("src_phase")
        dst = attrs.get("dst_phase")
        crossing = sorted(set(transitions_of.get((src, dst), [])))
        remap = {
            "src_phase": src,
            "dst_phase": dst,
            "cost_us": attrs.get("cost_us"),
            "arrays": crossing,
        }
        report["remaps"].append(remap)
        for name in crossing:
            array_entry(name)["remaps"].append({
                "src_phase": src,
                "dst_phase": dst,
                "cost_us": attrs.get("cost_us"),
            })

    report["arrays"] = {name: arrays[name] for name in sorted(arrays)}
    return report


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
