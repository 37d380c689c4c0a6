"""Human-readable reports of assistant runs and experiments.

The envisioned tool is interactive: the user browses search spaces with
their predicted performances.  These formatters are the text rendering of
that interface (and what the CLI prints).
"""

from __future__ import annotations

from typing import Any, List, Mapping

from .assistant import AssistantResult
from .schemes import Scheme, TOOL, matching_scheme
from .testcases import SummaryRow, TestCaseResult


def format_search_spaces(result: AssistantResult, limit: int = 0) -> str:
    """The browsable per-phase candidate table with predicted times."""
    lines = [
        f"program template: {result.template}",
        f"phases: {len(result.partition)}   "
        f"alignment classes: {len(result.alignment_spaces.classes)}   "
        f"candidates: {result.layout_spaces.total_candidates()}",
    ]
    indices = sorted(result.layout_spaces.per_phase)
    if limit:
        indices = indices[:limit]
    selection = result.selection.selection
    for idx in indices:
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


#: relative tolerance for the summary-grid internal-consistency checks
_GRID_RTOL = 1e-6


def validate_summary_grid(payload: Any) -> List[SummaryRow]:
    """Validate a ``results/summary_grid.json`` payload and rebuild the
    per-program :class:`SummaryRow` aggregates from it.

    Each entry must be internally consistent with the semantics of
    :class:`~repro.tool.testcases.TestCaseResult`: ``best`` names the
    measured-best scheme, ``loss_percent`` matches the tool-vs-best
    measurement gap, and ``tool_optimal`` agrees with a zero loss.
    Raises ``ValueError`` with a pointed message on the first violation.
    """
    if not isinstance(payload, list) or not payload:
        raise ValueError("summary grid must be a non-empty list")
    rows: dict = {}
    for i, entry in enumerate(payload):
        where = f"grid[{i}]"
        if not isinstance(entry, Mapping):
            raise ValueError(f"{where}: not an object")
        case = entry.get("case")
        if not isinstance(case, str) or case.count("/") < 3:
            raise ValueError(
                f"{where}: case must look like 'prog/dtype/n/pK', "
                f"got {case!r}"
            )
        program = case.split("/", 1)[0]
        schemes = entry.get("schemes")
        if not isinstance(schemes, Mapping) or TOOL not in schemes:
            raise ValueError(
                f"{where}: schemes must be an object containing {TOOL!r}"
            )
        for name, cell in schemes.items():
            for key in ("est_us", "meas_us"):
                value = (cell or {}).get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"{where}: schemes[{name!r}].{key} must be a "
                        f"non-negative number"
                    )
        named = {n: c for n, c in schemes.items() if n != TOOL}
        if not named:
            raise ValueError(f"{where}: no named schemes besides the tool")
        best_meas = min(c["meas_us"] for c in named.values())
        best = entry.get("best")
        if best != "dynamic":
            if best not in schemes:
                raise ValueError(
                    f"{where}: best {best!r} not among schemes "
                    f"{sorted(schemes)}"
                )
            if schemes[best]["meas_us"] > best_meas * (1 + _GRID_RTOL):
                raise ValueError(
                    f"{where}: best {best!r} is not measured-best "
                    f"({schemes[best]['meas_us']} vs {best_meas})"
                )
        tool_meas = schemes[TOOL]["meas_us"]
        expected_loss = max(tool_meas / best_meas - 1.0, 0.0) * 100.0
        loss = entry.get("loss_percent")
        if not isinstance(loss, (int, float)) or loss < 0:
            raise ValueError(
                f"{where}: loss_percent must be a non-negative number"
            )
        optimal = entry.get("tool_optimal")
        if not isinstance(optimal, bool):
            raise ValueError(f"{where}: tool_optimal must be a bool")
        # tool_optimal may hold with a small measured gap when the tool's
        # *selection* equals the best scheme's; a large gap is a lie.
        if optimal and loss > _GRID_RTOL * 100.0:
            raise ValueError(
                f"{where}: tool_optimal but loss_percent is {loss}"
            )
        if not optimal and abs(loss - expected_loss) > max(
            _GRID_RTOL * 100.0, expected_loss * _GRID_RTOL
        ):
            raise ValueError(
                f"{where}: loss_percent {loss} inconsistent with "
                f"schemes (expected {expected_loss})"
            )

        row = rows.setdefault(program, SummaryRow(program=program))
        row.cases += 1
        if optimal:
            row.tool_optimal += 1
        else:
            row.worst_loss_percent = max(row.worst_loss_percent, loss)
        row.best_scheme_counts[best] = (
            row.best_scheme_counts.get(best, 0) + 1
        )
        by_est = sorted(named, key=lambda n: named[n]["est_us"])
        by_meas = sorted(named, key=lambda n: named[n]["meas_us"])
        if by_est == by_meas:
            row.rankings_correct += 1
    return [rows[name] for name in sorted(rows)]


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
