"""Registry of the paper's four evaluation programs.

Each entry knows how to generate parameterized Fortran-subset source text
(problem size, data type, iteration count) and records the structural
facts the paper states, which the test suite verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from . import adi, erlebacher, shallow, tomcatv


@dataclass(frozen=True)
class ProgramSpec:
    """Metadata + source generator for one benchmark program."""

    name: str
    description: str
    source_fn: Callable[..., str]
    expected_phases: int
    template_rank: int
    default_size: int
    default_dtype: str
    has_time_loop: bool
    has_alignment_conflicts: bool
    #: problem sizes and processor counts of this program's test-case grid
    #: (documented in EXPERIMENTS.md; the paper states only the totals)
    grid_sizes: Tuple[int, ...] = ()
    grid_procs: Tuple[int, ...] = ()
    grid_dtypes: Tuple[str, ...] = ()
    #: (dtype, n, procs) tuples added to / removed from the full cross
    #: product, making the per-program case counts match the paper's
    #: (e.g. a large size that only fits the biggest machine)
    grid_extra: Tuple[Tuple[str, int, int], ...] = ()
    grid_skip: Tuple[Tuple[str, int, int], ...] = ()

    def source(self, n: Optional[int] = None, dtype: Optional[str] = None,
               maxiter: Optional[int] = None) -> str:
        """The source text; ``maxiter`` sets the time-loop iterations
        and is dropped for a program without a time loop (``None``
        keeps the generator's own default)."""
        kwargs = {}
        if maxiter is not None and self.has_time_loop:
            kwargs["maxiter"] = maxiter
        return self.source_fn(
            n=n if n is not None else self.default_size,
            dtype=dtype if dtype is not None else self.default_dtype,
            **kwargs,
        )


PROGRAMS: Dict[str, ProgramSpec] = {
    "adi": ProgramSpec(
        name="adi",
        description="Alternating direction implicit integration kernel",
        source_fn=adi.source,
        expected_phases=adi.EXPECTED_PHASES,
        template_rank=2,
        default_size=256,
        default_dtype="double",
        has_time_loop=True,
        has_alignment_conflicts=False,
        grid_sizes=(200, 264, 392, 520),
        grid_procs=(2, 4, 8, 16, 32),
        grid_dtypes=("real", "double"),
    ),
    "erlebacher": ProgramSpec(
        name="erlebacher",
        description="3D tridiagonal solver based on ADI integration (ICASE)",
        source_fn=erlebacher.source,
        expected_phases=erlebacher.EXPECTED_PHASES,
        template_rank=3,
        default_size=64,
        default_dtype="double",
        has_time_loop=False,
        has_alignment_conflicts=False,
        grid_sizes=(28, 40, 56, 72),
        grid_procs=(2, 4, 8, 16, 32),
        grid_dtypes=("double",),
        # One larger problem that only fits the full machine: 21 cases
        # total, as in the paper.
        grid_extra=(("double", 104, 32),),
    ),
    "tomcatv": ProgramSpec(
        name="tomcatv",
        description="Vectorized mesh generation (SPEC benchmark, APR)",
        source_fn=tomcatv.source,
        expected_phases=tomcatv.EXPECTED_PHASES,
        template_rank=2,
        default_size=128,
        default_dtype="double",
        has_time_loop=True,
        has_alignment_conflicts=True,
        grid_sizes=(72, 136, 264, 544),
        grid_procs=(2, 4, 8, 16, 32),
        grid_dtypes=("double",),
        # The 544x544 double mesh exceeds the two-node memory: 19 cases.
        grid_skip=(("double", 544, 2),),
    ),
    "shallow": ProgramSpec(
        name="shallow",
        description="Shallow-water-equations weather prediction (NCAR)",
        source_fn=shallow.source,
        expected_phases=shallow.EXPECTED_PHASES,
        template_rank=2,
        default_size=384,
        default_dtype="real",
        has_time_loop=True,
        has_alignment_conflicts=False,
        grid_sizes=(136, 264, 392, 520),
        grid_procs=(2, 4, 8, 16, 32),
        grid_dtypes=("real",),
        # The 14-field 520x520 state exceeds the two-node memory: 19 cases.
        grid_skip=(("real", 520, 2),),
    ),
}


def get_program(name: str) -> ProgramSpec:
    try:
        return PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown program {name!r}; available: {sorted(PROGRAMS)}"
        ) from None
