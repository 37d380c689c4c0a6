"""The worker-pool job boundary.

A *job* is a pure, picklable unit of work: a module-level function plus
an argument tuple, tagged with its submission index.  Workers return
``JobResult(index, value)`` and the pool reassembles results strictly by
index, so the combined output is a deterministic function of the inputs
regardless of worker scheduling, pool kind, or retries.

The estimation stage is the one fan-out (a job per chunk of phases,
:func:`repro.perf.estimator.estimate_phase_batch`), but the boundary is
generic — anything pure and picklable can go through it.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

#: executor-level failures worth retrying — the job itself did not run
#: (or died with the worker); application errors raised by the job
#: function propagate unwrapped instead.
TRANSIENT_EXECUTOR_ERRORS: Tuple[type, ...] = (BrokenExecutor, OSError)


@dataclass(frozen=True)
class Job:
    """One unit of work: ``fn(*args)`` with a stable position."""

    index: int
    fn: Callable[..., Any]
    args: Tuple


@dataclass(frozen=True)
class JobResult:
    """A job's return value, tagged for order-independent assembly."""

    index: int
    value: Any


def run_job(job: Job) -> JobResult:
    """Execute one job (in whatever worker it landed on)."""
    return JobResult(index=job.index, value=job.fn(*job.args))


def build_jobs(fn: Callable[..., Any],
               argtuples: Sequence[Tuple]) -> List[Job]:
    return [Job(index=i, fn=fn, args=tuple(args))
            for i, args in enumerate(argtuples)]
