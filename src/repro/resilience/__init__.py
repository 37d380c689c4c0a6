"""Resilience substrate: fault injection, deadlines, degradation
accounting, circuit breaking, and crash-safe persistent state.

The paper's tool is an *assistant*: it must always hand the programmer
**a** layout — an optimal one when the 0-1 ILPs finish, a well-labeled
heuristic one when they cannot.  This package provides the mechanisms
the rest of the repo uses to guarantee that posture:

- :mod:`repro.resilience.faults` — a seeded, deterministic
  fault-injection registry (no-op when no plan is armed) threaded
  through the cache, worker pool, service protocol, and ILP solvers;
- :mod:`repro.resilience.deadline` — a request deadline carried in a
  context variable: a soft budget the solvers consume to turn *anytime*,
  and a hard limit that cancels the request at cooperative checkpoints;
- :mod:`repro.resilience.degrade` — per-request degradation accounting:
  any fallback path notes itself here so the response, provenance, and
  metrics all carry an explicit ``degraded`` flag;
- :mod:`repro.resilience.breaker` — circuit breaker and
  exponential-backoff-with-jitter primitives;
- :mod:`repro.resilience.atomic` — atomic temp-file + ``os.replace``
  writes, checksum footers, and quarantine of corrupt files.

:mod:`repro.resilience.chaos` (imported explicitly, not re-exported
here, because it sits *above* the service layer) replays seeded fault
plans over the paper programs and asserts the pipeline invariant:
*correct result, labeled-degraded result, or clean typed error — never
a wrong answer, hang, or crash*.
"""

from .admission import (
    AdaptiveConcurrencyLimiter,
    AdmissionController,
    Ticket,
)
from .atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    checksum_unwrap,
    checksum_wrap,
    quarantine,
    stamp_json_integrity,
    verify_json_integrity,
)
from .breaker import Backoff, CircuitBreaker
from .deadline import (
    Deadline,
    checkpoint,
    current_deadline,
    deadline_scope,
    remaining_budget,
)
from .degrade import (
    DegradationEvent,
    collecting,
    note_degradation,
    noted_count,
)
from .errors import (
    CircuitOpenError,
    CorruptStateError,
    DeadlineExceeded,
    InjectedFault,
    OverloadedError,
    RequestTimeout,
    ResilienceError,
    ShuttingDownError,
)
from .faults import (
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    arm,
    armed,
    corrupt_point,
    disarm,
    fault_point,
)

__all__ = [
    "AdaptiveConcurrencyLimiter",
    "AdmissionController",
    "Backoff",
    "CircuitBreaker",
    "CircuitOpenError",
    "CorruptStateError",
    "Deadline",
    "DeadlineExceeded",
    "DegradationEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KNOWN_SITES",
    "OverloadedError",
    "RequestTimeout",
    "ResilienceError",
    "ShuttingDownError",
    "Ticket",
    "arm",
    "armed",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "checksum_unwrap",
    "checksum_wrap",
    "checkpoint",
    "collecting",
    "corrupt_point",
    "current_deadline",
    "deadline_scope",
    "disarm",
    "fault_point",
    "note_degradation",
    "noted_count",
    "quarantine",
    "remaining_budget",
    "stamp_json_integrity",
    "verify_json_integrity",
]
