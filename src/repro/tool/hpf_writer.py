"""HPF source emission: the assistant's end product.

Given an :class:`AssistantResult`, re-emit the user's program with High
Performance Fortran directives inserted:

* a ``PROCESSORS`` arrangement and the program ``TEMPLATE``;
* one ``ALIGN`` directive per array (replicated template dimensions shown
  as ``*``), taken from the selected layout of the array's first
  referencing phase;
* a ``DISTRIBUTE`` directive for the template;
* for dynamic layouts, ``REDISTRIBUTE``/``REALIGN`` directives in front
  of the phases where the selection changes an array's mapping (the
  paper's remapping points), plus ``DYNAMIC`` declarations for the
  affected arrays.

The emitted text is the paper's "totally specified data layout": a valid
sketch a user would hand to an HPF compiler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..distribution.layouts import Alignment, DataLayout
from ..frontend import ast
from ..frontend.printer import format_declaration, format_stmt
from ..frontend.symbols import ArraySymbol
from .assistant import AssistantResult

_BASE = "      "
_INDEX_NAMES = "ijklmn"


def _align_directive(array: str, alignment: Alignment,
                     template_rank: int) -> str:
    array_indices = [_INDEX_NAMES[d % 6] for d in range(alignment.rank)]
    template_slots = ["*"] * template_rank
    for adim, tdim in enumerate(alignment.axis_map):
        template_slots[tdim] = array_indices[adim]
    return (
        f"!HPF$ align {array}({', '.join(array_indices)}) "
        f"with t({', '.join(template_slots)})"
    )


def _distribute_text(layout: DataLayout) -> str:
    return ", ".join(dim.format for dim in layout.distribution.dims)


def write_hpf(result: AssistantResult) -> str:
    """Render the program with the selected layout as HPF directives."""
    program = result.program
    symbols = result.symbols
    selection = result.selection.selection
    layouts: Dict[int, DataLayout] = result.selected_layouts

    # -- decide the initial (declaration-time) mapping per array: its
    # layout at the first referencing phase, in phase order.
    first_layout: Dict[str, Tuple[Alignment, DataLayout]] = {}
    remap_directives: Dict[int, List[str]] = {}
    current_sig: Dict[str, Tuple] = {}
    dynamic_arrays = set()
    for phase in result.partition.phases:
        layout = layouts[phase.index]
        for array in phase.arrays:
            if not isinstance(symbols.get(array), ArraySymbol):
                continue
            try:
                sig = layout.array_identity(array)
                alignment = layout.alignment_of(array)
            except KeyError:
                continue
            if array not in first_layout:
                first_layout[array] = (alignment, layout)
                current_sig[array] = sig
                continue
            if current_sig[array] != sig:
                dynamic_arrays.add(array)
                lines = remap_directives.setdefault(phase.index, [])
                lines.append(
                    f"!HPF$ realign {array} "
                    f"with t  ! remap before phase {phase.index}: "
                    f"{_align_directive(array, alignment, result.template.rank)[6:]}"
                    f", distribute ({_distribute_text(layout)})"
                )
                current_sig[array] = sig

    # -- header -----------------------------------------------------------
    nprocs = result.config.nprocs
    lines: List[str] = [f"program {program.name}", f"{_BASE}implicit none"]
    for decl in program.declarations:
        lines.extend(format_declaration(decl))
    lines.append(f"!HPF$ processors procs({nprocs})")
    extents = ", ".join(str(e) for e in result.template.extents)
    lines.append(f"!HPF$ template t({extents})")
    sample_layout: Optional[DataLayout] = None
    for array in sorted(first_layout):
        alignment, layout = first_layout[array]
        if sample_layout is None:
            sample_layout = layout
        lines.append(
            _align_directive(array, alignment, result.template.rank)
        )
    if dynamic_arrays:
        lines.append(
            "!HPF$ dynamic " + ", ".join(sorted(dynamic_arrays))
        )
    if sample_layout is not None:
        lines.append(
            f"!HPF$ distribute t({_distribute_text(sample_layout)}) "
            f"onto procs"
        )

    # -- body with remap directives spliced before phase roots ------------
    phase_of_stmt = {
        id(phase.stmt): phase.index for phase in result.partition.phases
    }

    def render(stmts, depth: int) -> None:
        for stmt in stmts:
            idx = phase_of_stmt.get(id(stmt))
            if idx is not None and idx in remap_directives:
                lines.extend(remap_directives[idx])
            if isinstance(stmt, ast.Do) and id(stmt) not in phase_of_stmt:
                # control loop: recurse so nested phases get directives
                header = format_stmt(stmt, depth)[0]
                lines.append(header)
                render(stmt.body, depth + 1)
                lines.append(_BASE + "  " * depth + "enddo")
            elif isinstance(stmt, ast.If) and any(
                id(s) in phase_of_stmt for s in ast.walk_stmts([stmt])
            ):
                lines.append(
                    _BASE + "  " * depth
                    + f"if ({_cond_text(stmt)}) then"
                )
                render(stmt.then_body, depth + 1)
                if stmt.else_body:
                    lines.append(_BASE + "  " * depth + "else")
                    render(stmt.else_body, depth + 1)
                lines.append(_BASE + "  " * depth + "endif")
            else:
                lines.extend(format_stmt(stmt, depth))

    def _cond_text(stmt: ast.If) -> str:
        from ..frontend.printer import format_expr

        return format_expr(stmt.cond)

    render(program.body, 0)
    lines.append(f"{_BASE}end")
    return "\n".join(lines) + "\n"
