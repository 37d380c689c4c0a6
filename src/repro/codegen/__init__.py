"""Compiler model + SPMD lowering (the repo's Fortran D compiler)."""

from .comm import (
    BroadcastComm,
    CommEvent,
    GatherComm,
    PipelineSpec,
    ReductionComm,
    ShiftComm,
    StmtPlan,
    plan_statement,
)
from .spmd import (
    CompiledPhase,
    SPMDBuilder,
    compile_phase,
    compile_program,
)

__all__ = [
    "ShiftComm", "BroadcastComm", "GatherComm", "ReductionComm",
    "CommEvent", "PipelineSpec", "StmtPlan", "plan_statement",
    "CompiledPhase", "SPMDBuilder", "compile_phase", "compile_program",
]
