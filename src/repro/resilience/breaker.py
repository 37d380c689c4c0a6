"""Circuit breaker and exponential-backoff-with-jitter primitives.

The breaker wraps flaky dependencies (the worker pool's executor, the
cache's disk) with the classic three-state machine:

- ``closed``    — calls flow; K *consecutive* failures open the circuit;
- ``open``      — calls are rejected outright (callers degrade: the
  cache goes memory-only, the pool runs serial) until a reset timeout;
- ``half-open`` — a bounded number of probe calls are let through; one
  success closes the circuit, one failure re-opens it.

Everything is injectable (clock, RNG, sleep) so tests are instantaneous
and deterministic, and :meth:`CircuitBreaker.describe` is the breaker's
block of the service's ``stats`` snapshot (exported as
``repro_breaker_*``).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..obs import telemetry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing."""

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_probes = max(half_open_probes, 1)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        self.opens_total = 0
        self.rejections_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = HALF_OPEN
            self._probes_inflight = 0
            self._emit_transition(OPEN, HALF_OPEN)
        return self._state

    def _emit_transition(self, old: str, new: str) -> None:
        """Every state change becomes a telemetry event (no-op without
        an installed sink; sinks never raise back into the breaker)."""
        telemetry.emit(
            "breaker.transition",
            breaker=self.name, from_state=old, to_state=new,
            opens_total=self.opens_total,
        )

    def allow(self) -> bool:
        """May a call proceed right now?"""
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and (
                self._probes_inflight < self.half_open_probes
            ):
                self._probes_inflight += 1
                return True
            self.rejections_total += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            old = self._state
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probes_inflight = 0
            self._state = CLOSED
            if old != CLOSED:
                self._emit_transition(old, CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (state == CLOSED
                    and self._consecutive_failures >= self.failure_threshold):
                self._trip_locked()

    def _trip_locked(self) -> None:
        old = self._state
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_inflight = 0
        self.opens_total += 1
        self._emit_transition(old, OPEN)

    def reset(self) -> None:
        """Force-close (tests and admin tooling)."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probes_inflight = 0

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "state": self._state_locked(),
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout_s,
                "consecutive_failures": self._consecutive_failures,
                "opens_total": self.opens_total,
                "rejections_total": self.rejections_total,
            }


class Backoff:
    """Exponential backoff with full jitter: attempt ``k`` waits
    ``min(base * factor**k, max) * uniform(1 - jitter, 1)``.

    The RNG is seedable (deterministic delays in tests) and ``sleep`` is
    injectable (no real waiting in tests).  ``base_s=0`` disables
    waiting entirely — the default for the worker pool under test.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        factor: float = 2.0,
        max_s: float = 2.0,
        jitter: float = 0.5,
        seed: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.base_s = base_s
        self.factor = factor
        self.max_s = max_s
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._sleep = sleep

    def delay(self, attempt: int) -> float:
        """The wait before retry ``attempt`` (0-based), jittered."""
        if self.base_s <= 0:
            return 0.0
        raw = min(self.base_s * (self.factor ** attempt), self.max_s)
        if self.jitter <= 0:
            return raw
        return raw * (1.0 - self.jitter * self._rng.random())

    def wait(self, attempt: int) -> float:
        """Sleep for :meth:`delay`; returns the seconds waited."""
        seconds = self.delay(attempt)
        if seconds > 0:
            self._sleep(seconds)
        return seconds

    def describe(self) -> Dict[str, Any]:
        return {
            "base_s": self.base_s,
            "factor": self.factor,
            "max_s": self.max_s,
            "jitter": self.jitter,
        }
