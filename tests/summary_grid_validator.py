"""The reference validator of ``results/summary_grid.json``: it checks
each entry against the semantics of
``repro.tool.testcases.TestCaseResult`` and rebuilds the per-program
``SummaryRow`` aggregates that ``repro.tool.report.format_summary``
prints."""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.tool.schemes import TOOL
from repro.tool.testcases import SummaryRow


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
