"""Human-readable reports of assistant runs and experiments.

The envisioned tool is interactive: the user browses search spaces with
their predicted performances.  These formatters are the text rendering of
that interface (and what the CLI prints).
"""

from __future__ import annotations

from typing import List

from .assistant import AssistantResult
from .schemes import Scheme, matching_scheme
from .testcases import SummaryRow, TestCaseResult


def format_search_spaces(result: AssistantResult) -> str:
    """The browsable per-phase candidate table with predicted times."""
    lines = [
        f"program template: {result.template}",
        f"phases: {len(result.partition)}   "
        f"alignment classes: {len(result.alignment_spaces.classes)}   "
        f"candidates: {result.layout_spaces.total_candidates()}",
    ]
    selection = result.selection.selection
    for idx in sorted(result.layout_spaces.per_phase):
        phase = result.partition.phases[idx]
        freq = result.pcfg.phase_frequency(idx)
        lines.append(
            f"phase {idx} (line {phase.line}, do {phase.loop_var}, "
            f"freq {freq:g}):"
        )
        for pos, est in enumerate(result.estimates.per_phase[idx]):
            marker = "*" if selection.get(idx) == pos else " "
            dist = est.candidate.layout.distribution
            lines.append(
                f"  {marker} c{pos} {dist}  "
                f"{est.estimate.exec_class:<20s} "
                f"{est.total / 1000.0:10.3f} ms"
            )
    return "\n".join(lines)


def format_selection(result: AssistantResult) -> str:
    """The chosen layout, HPF-style, with per-phase deviations."""
    lines = [
        f"predicted execution time: "
        f"{result.predicted_total_us / 1e6:.4f} s",
        f"layout is {'DYNAMIC (remapping)' if result.is_dynamic else 'static'}",
        f"selection ILP: {result.selection.num_variables} variables, "
        f"{result.selection.num_constraints} constraints, solved in "
        f"{result.selection.solution.stats.wall_time * 1000:.0f} ms",
    ]
    selection = result.selection.selection
    sample_idx = min(selection)
    sample = result.layout_spaces.per_phase[sample_idx][selection[sample_idx]]
    lines.append(sample.layout.describe())

    def differs(idx: int, pos: int) -> bool:
        layout = result.layout_spaces.per_phase[idx][pos].layout
        if layout.distribution != sample.layout.distribution:
            return True
        sample_align = sample.layout.alignment_map
        return any(
            name in sample_align and alignment != sample_align[name]
            for name, alignment in layout.alignments
        )

    deviations = [
        (idx, pos)
        for idx, pos in sorted(selection.items())
        if differs(idx, pos)
    ]
    if deviations:
        lines.append("phases with different layouts:")
        for idx, pos in deviations:
            layout = result.layout_spaces.per_phase[idx][pos].layout
            lines.append(f"  phase {idx}: {layout.distribution}")
    return "\n".join(lines)


def format_schemes(schemes: List[Scheme]) -> str:
    """Estimated vs measured table for the promising schemes."""
    lines = [f"{'scheme':<12} {'estimated':>12} {'measured':>12}"]
    for scheme in schemes:
        measured = (
            f"{scheme.measured_us / 1e6:10.4f} s"
            if scheme.measured_us is not None
            else "-"
        )
        lines.append(
            f"{scheme.name:<12} {scheme.estimated_us / 1e6:10.4f} s "
            f"{measured:>12}"
        )
    return "\n".join(lines)


def format_test_case(result: TestCaseResult) -> str:
    lines = [f"== {result.case.label} =="]
    lines.append(format_schemes(result.schemes))
    picked = matching_scheme(result.schemes, result.tool_scheme.selection)
    picked_name = picked.name if picked else "custom dynamic"
    best = result.best_measured
    verdict = "OPTIMAL" if result.tool_optimal else (
        f"suboptimal (+{result.loss_percent:.1f}% vs {best.name})"
    )
    lines.append(f"tool picked: {picked_name} -> {verdict}")
    return "\n".join(lines)


def format_summary(rows: List[SummaryRow]) -> str:
    lines = [
        f"{'program':<12} {'cases':>5} {'optimal':>8} {'worst loss':>11} "
        f"{'rank ok':>8}  best-scheme tallies"
    ]
    total_cases = total_optimal = 0
    worst = 0.0
    for row in rows:
        tallies = ", ".join(
            f"{name}:{count}"
            for name, count in sorted(row.best_scheme_counts.items())
        )
        lines.append(
            f"{row.program:<12} {row.cases:>5} {row.tool_optimal:>8} "
            f"{row.worst_loss_percent:>10.1f}% {row.rankings_correct:>8}  "
            f"{tallies}"
        )
        total_cases += row.cases
        total_optimal += row.tool_optimal
        worst = max(worst, row.worst_loss_percent)
    lines.append(
        f"{'TOTAL':<12} {total_cases:>5} {total_optimal:>8} {worst:>10.1f}%"
    )
    return "\n".join(lines)


def format_service_response(resp: dict) -> str:
    """Render an analyze response received over the service protocol."""
    if not resp.get("ok"):
        kind = resp.get("error_kind", "internal")
        return f"request failed [{kind}]: {resp.get('error')}"
    lines = [
        f"predicted execution time: "
        f"{resp['predicted_total_us'] / 1e6:.4f} s",
        f"layout is "
        f"{'DYNAMIC (remapping)' if resp['is_dynamic'] else 'static'}",
        f"cache: {resp['cache_hits']} stage hits, "
        f"{resp['cache_misses']} misses",
    ]
    for timing in resp.get("stage_timings", []):
        mark = "hit " if timing["cache_hit"] else "miss"
        lines.append(
            f"  {timing['stage']:<13s} {mark} "
            f"{timing['seconds'] * 1000.0:9.2f} ms"
        )
    layouts = resp.get("layouts", {})
    if layouts:
        first = layouts[min(layouts, key=int)]
        lines.append(first["hpf"])
        distinct = {
            (layout["distribution"], tuple(sorted(layout["alignments"].items())))
            for layout in layouts.values()
        }
        if len(distinct) > 1:
            lines.append(
                f"({len(distinct)} distinct per-phase layouts; "
                f"phase 0 shown)"
            )
    return "\n".join(lines)
