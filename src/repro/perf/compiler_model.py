"""Compiler model (paper Section 2.3).

The performance estimator must know *where and what kind of communication
the target compiler will generate* for a candidate layout.  The model is
parameterized with the transformations the target compiler performs; the
paper's experiments simulate a compiler that does message coalescing and
message vectorization but **no** coarse-grain pipelining, loop interchange
or loop distribution — :data:`FORTRAN_D_PROTOTYPE` captures exactly that
configuration.

Communication *placement and classification* is shared with the SPMD code
generator (:mod:`repro.codegen`): the premise of the paper's evaluation is
that the assistant correctly simulates the compiler it targets, so both
sides must agree on what communication happens.  What the estimator does
**not** share is the pricing: it ignores boundary-processor code, assumes
uniform block sizes, and prices pipelines with a closed form (see
:mod:`repro.perf.execution_model`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompilerOptions:
    """Which optimizations the modelled target compiler performs."""

    message_vectorization: bool = True
    message_coalescing: bool = True
    coarse_grain_pipelining: bool = False

    @property
    def name(self) -> str:
        bits = []
        if self.message_vectorization:
            bits.append("vect")
        if self.message_coalescing:
            bits.append("coal")
        if self.coarse_grain_pipelining:
            bits.append("cgp")
        return "+".join(bits) or "naive"


#: The target-compiler configuration of the paper's experiments.
FORTRAN_D_PROTOTYPE = CompilerOptions()
