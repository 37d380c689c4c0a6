"""Worker pool: the opt-in job boundary for estimation batches.

Built on :mod:`concurrent.futures`.  Three kinds:

- ``serial`` (default): no executor, no child process; a service whose
  pool was requested serial never calls it — a batch prices in 1-6 ms
  in-thread, a process pool costs 9-17 ms to cross;
- ``process``: true parallelism, for batches that measure above ~25 ms;
- ``thread``: no GIL escape, but the identical job path with nothing to
  pickle: chaos's pool, and the fallback where no process pool starts.

Robustness contract: per-job timeouts (``job_timeout``, clamped to the
hard limit of the request deadline in scope), bounded retries
on transient executor failures (``retries``) paced by an injectable
exponential :class:`~repro.resilience.breaker.Backoff` (disabled by
default so tests stay fast), a circuit breaker that drops straight to
serial execution after a run of consecutive executor faults, and
degradation process -> thread -> serial whenever a pool cannot be
(re)built.  Because jobs are pure (see :mod:`repro.service.jobs`), a
retried or serially-degraded job returns exactly what the pooled run
would have.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs import tracing
from ..resilience.breaker import Backoff, CircuitBreaker
from ..resilience.deadline import current_deadline
from ..resilience.errors import InjectedFault
from ..resilience.faults import fault_point
from .errors import JobTimeoutError
from .jobs import TRANSIENT_EXECUTOR_ERRORS, build_jobs, run_job

POOL_KINDS = ("process", "thread", "serial")

#: exceptions worth retrying: real executor breakage, injected faults,
#: and futures cancelled when a sibling's failure rebuilt the executor
_RETRIABLE = (InjectedFault, CancelledError, *TRANSIENT_EXECUTOR_ERRORS)


class WorkerPool:
    """A resilient wrapper around one ``concurrent.futures`` executor."""

    def __init__(
        self,
        kind: str = "serial",
        max_workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        backoff: Optional[Backoff] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        if kind not in POOL_KINDS:
            raise ValueError(
                f"pool kind must be one of {POOL_KINDS}, got {kind!r}"
            )
        self.requested_kind = kind
        self.active_kind = kind
        self.max_workers = max_workers
        self.job_timeout = job_timeout
        self.retries = max(retries, 0)
        # No waiting unless a backoff is supplied (tests stay instant;
        # the serve CLI passes a real one).
        self.backoff = backoff or Backoff(base_s=0.0)
        self.breaker = breaker or CircuitBreaker(
            name="worker-pool", failure_threshold=5, reset_timeout_s=10.0
        )
        self._executor: Optional[Executor] = None
        self._lock = threading.Lock()
        self.degradations = 0

    # -- executor lifecycle ----------------------------------------------

    def _build(self, kind: str) -> Optional[Executor]:
        """Try to build an executor of ``kind``, degrading down the
        chain process -> thread -> serial on failure."""
        order = POOL_KINDS[POOL_KINDS.index(kind):]
        for candidate in order:
            if candidate != kind:
                self.degradations += 1
            if candidate == "serial":
                self.active_kind = "serial"
                return None
            cls = (ProcessPoolExecutor if candidate == "process"
                   else ThreadPoolExecutor)
            try:
                executor = cls(max_workers=self.max_workers)
                self.active_kind = candidate
                return executor
            except Exception:
                continue
        self.active_kind = "serial"
        return None

    def _ensure(self) -> Optional[Executor]:
        with self._lock:
            if self.active_kind == "serial":
                return None
            if self._executor is None:
                self._executor = self._build(self.active_kind)
            return self._executor

    def _rebuild(self, broken: Optional[Executor]) -> Optional[Executor]:
        """Replace a broken executor (once — concurrent callers that saw
        the same breakage reuse the replacement)."""
        with self._lock:
            if self._executor is not broken:
                return self._executor
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            self._executor = self._build(self.active_kind)
            return self._executor

    def shutdown(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- running jobs ----------------------------------------------------

    def run_jobs(self, fn: Callable[..., Any],
                 argtuples: Sequence[Tuple]) -> List[Any]:
        """Map ``fn`` over the argument tuples; results in input order.

        This is the :data:`repro.perf.estimator.JobRunner` interface, so
        a pool can be handed straight to ``estimate_search_spaces`` /
        ``run_assistant``.

        When a trace is active in the calling context, every job is
        wrapped in :func:`repro.obs.tracing.run_traced_job`: workers
        (subprocess, thread, or degraded-serial alike) collect their
        spans under the caller's trace ID and ship them back with the
        result, so the whole fan-out reports into one trace.
        """
        tracer = tracing.active_tracer()
        if tracer is None:
            return self._dispatch(fn, argtuples)
        with tracing.span(
            f"pool:{getattr(fn, '__name__', 'jobs')}",
            jobs=len(argtuples),
            requested_kind=self.requested_kind,
        ) as pool_span:
            prefix = tracer.new_prefix()
            wrapped = [
                (tracer.trace_id, pool_span.span_id,
                 f"{prefix}{i}.", fn, tuple(args), tracer.detail)
                for i, args in enumerate(argtuples)
            ]
            pairs = self._dispatch(tracing.run_traced_job, wrapped)
            pool_span.set_attr("active_kind", self.active_kind)
            pool_span.set_attr("degradations", self.degradations)
        values: List[Any] = []
        for value, span_dicts in pairs:
            tracer.merge(span_dicts)
            values.append(value)
        return values

    def _dispatch(self, fn: Callable[..., Any],
                  argtuples: Sequence[Tuple]) -> List[Any]:
        """The untraced mapping core shared by both run_jobs paths."""
        jobs = build_jobs(fn, argtuples)
        if not jobs:
            return []
        executor = self._ensure()
        if executor is None or not self.breaker.allow():
            # serial reference path (also the breaker-open fallback:
            # after a run of executor faults the batch runs in-process
            # until the breaker half-opens)
            return [run_job(job).value for job in jobs]
        try:
            fault_point("pool.submit")
            futures = [executor.submit(run_job, job) for job in jobs]
        except (RuntimeError, *_RETRIABLE):
            # the executor died before accepting work — run this batch
            # on whatever the rebuild gives us (possibly serial)
            self.breaker.record_failure()
            self._rebuild(executor)
            return self._run_batch_degraded(jobs)
        results, failures = self._gather(jobs, futures, executor)
        if failures == 0:
            self.breaker.record_success()
        return results

    def _run_batch_degraded(self, jobs) -> List[Any]:
        executor = self._ensure()
        if executor is None:
            return [run_job(job).value for job in jobs]
        futures = [executor.submit(run_job, job) for job in jobs]
        return self._gather(jobs, futures, executor)[0]

    def _gather(self, jobs, futures,
                executor: Executor) -> Tuple[List[Any], int]:
        """Wait for a submitted batch in input order, retrying the jobs
        whose wait failed; returns the values and the failure count."""
        values: List[Any] = []
        failures = 0
        try:
            for job, future in zip(jobs, futures):
                try:
                    values.append(self._wait(future, job))
                except _RETRIABLE as exc:
                    failures += 1
                    self.breaker.record_failure()
                    values.append(self._retry_job(job, executor, exc))
        finally:
            # a no-op on finished futures; when a timeout ended the
            # batch early it takes the queued rest off the workers
            for future in futures:
                future.cancel()
        return values, failures

    def _wait(self, future: Future, job) -> Any:
        """The one wait on a pool future: bounded by ``job_timeout``
        and by the hard limit of the request deadline in scope, so a
        hung worker ends in a typed ``timeout`` and cannot pin the
        calling thread."""
        timeout = self.job_timeout
        deadline = current_deadline()
        if deadline is not None:
            hard = deadline.hard_remaining()
            if hard is not None and (timeout is None or hard < timeout):
                timeout = hard
        try:
            fault_point("pool.result")
            return future.result(timeout=timeout).value
        except FuturesTimeoutError:
            future.cancel()
            if deadline is not None:
                deadline.checkpoint("pool.result")
            raise JobTimeoutError(
                f"job {job.index} exceeded {self.job_timeout}s in "
                f"{self.active_kind} pool"
            )

    def _retry_job(self, job, broken: Optional[Executor],
                   cause: BaseException) -> Any:
        """Bounded retries (paced by the backoff), then serial in-process.

        Only real executor breakage warrants a rebuild — rebuilding
        cancels the batch's other in-flight futures.  An injected fault
        or a cancellation means the executor itself is healthy, so the
        job is resubmitted to it as-is.
        """
        for attempt in range(self.retries):
            self.backoff.wait(attempt)
            executor = (
                self._rebuild(broken)
                if isinstance(cause, TRANSIENT_EXECUTOR_ERRORS)
                else self._ensure()
            )
            if executor is None:
                break
            try:
                return self._wait(executor.submit(run_job, job), job)
            except _RETRIABLE as exc:
                self.breaker.record_failure()
                cause = exc
                broken = executor
        # graceful degradation: the job is pure, so running it here
        # yields the same value the pool would have produced
        self.degradations += 1
        return run_job(job).value

    # -- introspection ---------------------------------------------------

    def describe(self) -> dict:
        return {
            "requested_kind": self.requested_kind,
            "active_kind": self.active_kind,
            "max_workers": self.max_workers,
            "job_timeout": self.job_timeout,
            "retries": self.retries,
            "degradations": self.degradations,
            "backoff": self.backoff.describe(),
            "breaker": self.breaker.describe(),
        }
