"""The experiments' "measured" side.

The paper compiles each promising layout with the Fortran D compiler and
times the SPMD programs on the iPSC/860; here the SPMD code generator
lowers the program under each layout and the discrete-event simulator
times it.  Measured runs use the *actual* branch probabilities (the
assistant only sees its 50% guess), and exact boundary-processor
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.phases import partition_phases
from ..codegen.spmd import compile_program
from ..distribution.layouts import DataLayout
from ..frontend.inline import inline_program
from ..frontend.parser import parse_source_file
from ..frontend.symbols import build_symbol_table
from ..machine.params import IPSC860, MachineParams
from ..machine.simulator import simulate


@dataclass
class Measurement:
    """One measured (simulated) program execution."""

    makespan_us: float
    messages: int
    bytes_sent: int
    remap_count: int
    remap_time_us: float

    @property
    def seconds(self) -> float:
        return self.makespan_us / 1e6


def measure_layouts(
    source: str,
    selected_layouts: Dict[int, DataLayout],
    nprocs: int,
    machine: MachineParams = IPSC860,
    actual_branch_probs: Optional[Dict[int, float]] = None,
    actual_branch_probability: float = 0.5,
    max_pipeline_stages: int = 1024,
) -> Measurement:
    """Compile ``source`` under per-phase ``selected_layouts`` and run it
    on the simulated machine.

    ``actual_branch_probs`` / ``actual_branch_probability`` describe real
    program behaviour (per-IF-line overrides and the default); phase
    indices are stable across branch-probability settings because the
    phase *structure* does not depend on them.
    """
    program = inline_program(parse_source_file(source))
    symbols = build_symbol_table(program)
    partition = partition_phases(
        program,
        symbols,
        branch_probability=actual_branch_probability,
        branch_prob_overrides=actual_branch_probs,
    )
    builder = compile_program(
        partition,
        symbols,
        selected_layouts,
        machine,
        nprocs,
        max_pipeline_stages=max_pipeline_stages,
    )
    result = simulate(builder.programs, machine, builder.collectives)
    return Measurement(
        makespan_us=result.makespan,
        messages=result.stats.messages,
        bytes_sent=result.stats.bytes_sent,
        remap_count=builder.remap_count,
        remap_time_us=builder.remap_time_total,
    )
