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
  writes, checksum footers, and quarantine of corrupt files;
- :mod:`repro.resilience.admission` — the service's adaptive
  concurrency limit and load shedding;
- :mod:`repro.resilience.errors` — the typed errors of all of these.

:mod:`repro.resilience.chaos` sits *above* the service layer: it
replays seeded fault plans over the paper programs and asserts the
pipeline invariant: *correct result, labeled-degraded result, or clean
typed error — never a wrong answer, hang, or crash*.
"""
