"""Overload protection: admission control in front of request handling.

Three cooperating pieces guard the service's front door:

- :class:`AdaptiveConcurrencyLimiter` — an AIMD limiter (in the style
  of Netflix concurrency-limits) that discovers how many requests the
  box can usefully run at once.  It tracks a "no-load" latency floor
  with an asymmetric EWMA (fast downward, slow upward so congestion
  cannot poison the baseline) and compares each completed request
  against it: latency within ``tolerance``× the floor earns an additive
  increase (+1 per ~limit samples), latency beyond it — or a timeout —
  costs a multiplicative decrease.  A request runs on one thread from
  admission to release, so the limit is the concurrency admission can
  grant and ``in_flight`` is the number of threads at work.  The
  service admits only requests that compute (an answer-cache hit and a
  request joining another's compute take no ticket), so every sample
  is a compute and the floor is the no-load cost of one;

- :class:`AdmissionController` — a bounded queue plus the limiter.  A
  request is admitted immediately when a concurrency slot is free,
  queued briefly when one is about to be, and **shed with a typed**
  :class:`~repro.resilience.errors.OverloadedError` (carrying
  ``retry_after_s``) when the queue is full, the bounded wait times
  out, or — the deadline-aware case — the *predicted* queue wait would
  consume the request's own budget, so work that would time out anyway
  is never started.  When utilization crosses the brownout threshold,
  or any wired :class:`~repro.resilience.breaker.CircuitBreaker` is not
  closed, admitted tickets are flagged ``brownout``: the service clamps
  their solver budget so the existing anytime/greedy fallbacks produce
  fast, *labeled-degraded* answers — brownout before shedding, shedding
  before collapse;

- drain support — :meth:`AdmissionController.begin_drain` flips the
  controller into rejection mode (typed
  :class:`~repro.resilience.errors.ShuttingDownError`), wakes queued
  waiters, and :meth:`wait_idle` blocks until in-flight work completes
  or the drain deadline expires.  Work a drain must wait for but that
  holds no ticket is bracketed by :meth:`enter` / :meth:`leave`.

Everything is thread-safe behind one condition variable, clocks are
injectable for deterministic tests, and every shed / brownout flip /
drain transition is published through :func:`repro.obs.telemetry.emit`
so the event log and ``repro top`` see overload as a first-class,
observable state.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Any, Dict, List, Optional, Sequence

from ..obs import telemetry
from .breaker import CircuitBreaker
from .errors import OverloadedError, ShuttingDownError

#: service-time guess (seconds) used for wait prediction before any
#: request has completed — deliberately conservative
DEFAULT_SERVICE_ESTIMATE_S = 0.1

#: EWMA smoothing of the observed per-request service time
SERVICE_TIME_ALPHA = 0.2

#: floor on the retry hint so clients never busy-spin
MIN_RETRY_AFTER_S = 0.05


class AdaptiveConcurrencyLimiter:
    """AIMD concurrency limit driven by the latency gradient."""

    def __init__(
        self,
        initial_limit: int = 8,
        min_limit: int = 1,
        max_limit: int = 64,
        tolerance: float = 2.0,
        decrease_factor: float = 0.7,
    ):
        if not 1 <= min_limit <= initial_limit <= max_limit:
            raise ValueError(
                "need 1 <= min_limit <= initial_limit <= max_limit, got "
                f"{min_limit}/{initial_limit}/{max_limit}"
            )
        if tolerance <= 1.0:
            raise ValueError(f"tolerance must be > 1, got {tolerance}")
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError(
                f"decrease_factor must be in (0, 1), got {decrease_factor}"
            )
        self.min_limit = int(min_limit)
        self.max_limit = int(max_limit)
        self.tolerance = float(tolerance)
        self.decrease_factor = float(decrease_factor)
        self._lock = threading.Lock()
        self._limit = float(initial_limit)
        self._baseline: Optional[float] = None
        self.increases_total = 0
        self.decreases_total = 0

    # -- the AIMD loop ---------------------------------------------------

    def on_sample(self, seconds: float, ok: bool = True) -> None:
        """Feed one completed request's latency into the limiter."""
        with self._lock:
            if not ok:
                self._decrease_locked()
                return
            if self._baseline is None:
                self._baseline = seconds
            elif seconds < self._baseline:
                # chase the no-load floor quickly downward...
                self._baseline += (seconds - self._baseline) * 0.5
            else:
                # ...but drift upward slowly, so sustained congestion
                # cannot retrain the floor and mask itself
                self._baseline += (seconds - self._baseline) * 0.05
            if seconds <= self._baseline * self.tolerance:
                if self._limit < self.max_limit:
                    # additive increase: +1 after ~limit good samples
                    self._limit = min(
                        self._limit + 1.0 / max(self._limit, 1.0),
                        float(self.max_limit),
                    )
                    self.increases_total += 1
            else:
                self._decrease_locked()

    def on_timeout(self) -> None:
        """A request blew its hard timeout — strongest congestion signal."""
        with self._lock:
            self._decrease_locked()

    def _decrease_locked(self) -> None:
        decreased = max(
            self._limit * self.decrease_factor, float(self.min_limit)
        )
        if decreased < self._limit:
            self.decreases_total += 1
        self._limit = decreased

    # -- reading ---------------------------------------------------------

    @property
    def limit(self) -> int:
        with self._lock:
            return int(self._limit)

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "limit": int(self._limit),
                "min_limit": self.min_limit,
                "max_limit": self.max_limit,
                "tolerance": self.tolerance,
                "baseline_s": self._baseline,
                "increases_total": self.increases_total,
                "decreases_total": self.decreases_total,
            }


class Ticket:
    """One admitted request: how long it queued, and whether it was
    admitted under brownout (the service clamps its solver budget)."""

    __slots__ = ("waited_s", "brownout")

    def __init__(self, waited_s: float, brownout: bool):
        self.waited_s = waited_s
        self.brownout = brownout


class AdmissionController:
    """Bounded admission queue with deadline-aware load shedding."""

    def __init__(
        self,
        limiter: Optional[AdaptiveConcurrencyLimiter] = None,
        max_queue: int = 64,
        max_queue_wait_s: float = 2.0,
        brownout_utilization: float = 0.85,
        breakers: Optional[Sequence[CircuitBreaker]] = None,
    ):
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if max_queue_wait_s <= 0:
            raise ValueError(
                f"max_queue_wait_s must be > 0, got {max_queue_wait_s}"
            )
        if not 0.0 < brownout_utilization <= 1.0:
            raise ValueError(
                "brownout_utilization must be in (0, 1], got "
                f"{brownout_utilization}"
            )
        self.limiter = limiter or AdaptiveConcurrencyLimiter()
        self.max_queue = int(max_queue)
        self.max_queue_wait_s = float(max_queue_wait_s)
        self.brownout_utilization = float(brownout_utilization)
        self.breakers: List[CircuitBreaker] = list(breakers or [])
        self._cond = threading.Condition()
        self._in_flight = 0
        self._in_progress = 0
        self._queued = 0
        self._draining = False
        self._brownout_active = False
        self._service_ewma: Optional[float] = None
        self._counters: Dict[str, int] = {
            "admitted": 0,
            "admitted_after_wait": 0,
            "shed_deadline": 0,
            "shed_queue_full": 0,
            "shed_wait_timeout": 0,
            "rejected_draining": 0,
            "brownout_admitted": 0,
        }

    # -- predictions -----------------------------------------------------

    def _predicted_wait_locked(self) -> float:
        """Expected queue wait for one more arrival: zero when a slot is
        free, else Little's-law-style ``waiters * service / servers``."""
        limit = self.limiter.limit
        if self._in_flight < limit and self._queued == 0:
            return 0.0
        service = self._service_ewma or DEFAULT_SERVICE_ESTIMATE_S
        return (self._queued + 1) * service / limit

    def _retry_after_locked(self) -> float:
        return max(self._predicted_wait_locked(), MIN_RETRY_AFTER_S)

    def _brownout_locked(self) -> bool:
        if (self._in_flight / self.limiter.limit
                >= self.brownout_utilization):
            return True
        # a non-closed breaker means a dependency (pool, cache disk) is
        # already degraded: prefer fast labeled-degraded answers now
        return any(b.state != "closed" for b in self.breakers)

    def _note_brownout_locked(self, active: bool) -> None:
        if active != self._brownout_active:
            self._brownout_active = active
            telemetry.emit(
                "admission.brownout",
                active=active,
                in_flight=self._in_flight,
                queue_depth=self._queued,
                limit=self.limiter.limit,
            )

    # -- the front door --------------------------------------------------

    def try_acquire(self, budget_s: Optional[float] = None) -> Ticket:
        """Admit one request or raise a typed rejection.

        ``budget_s`` is the request's remaining time budget; when the
        predicted queue wait would consume it, the request is shed
        immediately (deadline-aware shedding) so doomed work never
        starts.  Raises :class:`OverloadedError` (with
        ``retry_after_s``) or :class:`ShuttingDownError`.
        """
        start = monotonic()
        with self._cond:
            if self._draining:
                self._counters["rejected_draining"] += 1
                raise ShuttingDownError("service is draining")
            predicted = self._predicted_wait_locked()
            if budget_s is not None and predicted >= budget_s:
                self._counters["shed_deadline"] += 1
                retry_after = self._retry_after_locked()
                telemetry.emit(
                    "admission.shed", reason="deadline",
                    predicted_wait_s=round(predicted, 4),
                    budget_s=budget_s, queue_depth=self._queued,
                    in_flight=self._in_flight,
                )
                raise OverloadedError(
                    f"predicted queue wait {predicted:.3f}s would consume "
                    f"the request budget {budget_s:.3f}s",
                    retry_after_s=retry_after,
                )
            if predicted > 0.0 and self._queued >= self.max_queue:
                self._counters["shed_queue_full"] += 1
                retry_after = self._retry_after_locked()
                telemetry.emit(
                    "admission.shed", reason="queue-full",
                    queue_depth=self._queued, in_flight=self._in_flight,
                    limit=self.limiter.limit,
                )
                raise OverloadedError(
                    f"admission queue full ({self._queued}/"
                    f"{self.max_queue})",
                    retry_after_s=retry_after,
                )
            wait_cap = self.max_queue_wait_s
            if budget_s is not None:
                wait_cap = min(wait_cap, budget_s)
            give_up_at = start + wait_cap
            waited = False
            self._queued += 1
            try:
                while self._in_flight >= self.limiter.limit:
                    if self._draining:
                        self._counters["rejected_draining"] += 1
                        raise ShuttingDownError("service is draining")
                    remaining = give_up_at - monotonic()
                    if remaining <= 0:
                        self._counters["shed_wait_timeout"] += 1
                        retry_after = self._retry_after_locked()
                        telemetry.emit(
                            "admission.shed", reason="wait-timeout",
                            waited_s=round(monotonic() - start, 4),
                            queue_depth=self._queued - 1,
                            in_flight=self._in_flight,
                        )
                        raise OverloadedError(
                            "no concurrency slot freed within "
                            f"{wait_cap:.3f}s",
                            retry_after_s=retry_after,
                        )
                    waited = True
                    self._cond.wait(timeout=remaining)
            finally:
                self._queued -= 1
            self._in_flight += 1
            self._counters["admitted"] += 1
            if waited:
                self._counters["admitted_after_wait"] += 1
            brownout = self._brownout_locked()
            self._note_brownout_locked(brownout)
            if brownout:
                self._counters["brownout_admitted"] += 1
            return Ticket(
                waited_s=monotonic() - start, brownout=brownout
            )

    def release(
        self,
        ticket: Ticket,
        seconds: float,
        ok: bool = True,
        timed_out: bool = False,
    ) -> None:
        """Return one admitted request's slot and feed its latency to
        the limiter (a timeout is the strongest congestion signal)."""
        with self._cond:
            self._in_flight = max(self._in_flight - 1, 0)
            if ok and not timed_out:
                if self._service_ewma is None:
                    self._service_ewma = seconds
                else:
                    self._service_ewma += (
                        (seconds - self._service_ewma) * SERVICE_TIME_ALPHA
                    )
            self._note_brownout_locked(self._brownout_locked())
            self._cond.notify_all()
        if timed_out:
            self.limiter.on_timeout()
        else:
            self.limiter.on_sample(seconds, ok=ok)

    # -- drain -----------------------------------------------------------

    def enter(self) -> bool:
        """Count one request in progress, ticketed or not, until its
        :meth:`leave`, so that :meth:`wait_idle` waits for it; returns
        whether the controller is open (not draining).  One critical
        section: a request that saw it open is counted before a drain
        that begins afterwards looks."""
        with self._cond:
            self._in_progress += 1
            return not self._draining

    def leave(self) -> None:
        with self._cond:
            self._in_progress -= 1
            if not self._in_progress:
                self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting; queued waiters are woken and rejected."""
        with self._cond:
            if self._draining:
                return
            self._draining = True
            in_flight = self._in_flight
            queued = self._queued
            self._cond.notify_all()
        telemetry.emit(
            "service.drain", phase="begin",
            in_flight=in_flight, queue_depth=queued,
        )

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no request is in flight or in progress, or
        ``timeout_s`` runs out; returns whether the controller went
        idle in time."""
        give_up_at = monotonic() + max(timeout_s, 0.0)
        with self._cond:
            while self._in_flight > 0 or self._in_progress > 0:
                remaining = give_up_at - monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    # -- introspection ---------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        with self._cond:
            counters = dict(self._counters)
            shed_total = (
                counters["shed_deadline"] + counters["shed_queue_full"]
                + counters["shed_wait_timeout"]
            )
            return {
                "in_flight": self._in_flight,
                "in_progress": self._in_progress,
                "queue_depth": self._queued,
                "max_queue": self.max_queue,
                "max_queue_wait_s": self.max_queue_wait_s,
                "draining": self._draining,
                "brownout": self._brownout_active,
                "brownout_utilization": self.brownout_utilization,
                "predicted_wait_s": self._predicted_wait_locked(),
                "service_time_ewma_s": self._service_ewma,
                "shed_total": shed_total,
                "counters": counters,
                "limiter": self.limiter.describe(),
            }
