"""Service-side telemetry: the event log and the tail-based trace
sampler, wired into one object the :class:`LayoutService` owns.

Two pieces:

- :class:`TailSampler` — decides *after* a request completes whether
  its span tree is worth keeping.  It is offered the requests that have
  one: computes, and whatever a client sent with ``trace: true``; an
  answer hit and a joined request run under no tracer, so there is
  nothing to keep (their ``service.request`` events say which tier
  served them).  Slow, degraded, and errored requests are always
  kept (those are the traces an operator opens), plus a
  deterministic 1-in-K sample of healthy traffic (``int(trace_id, 16)
  % K == 0`` — reproducible across runs and across processes sharing
  the trace ID, with no RNG state).  The crucial property is that the
  decision happens **before** serialization: ``Tracer.to_dict()`` is
  the expensive part of always-on tracing, and dropped traces never
  pay it.
- :class:`ServiceTelemetry` — owns the :class:`~repro.obs.telemetry.
  EventLog` and the sampler, installs itself as the process-wide
  :func:`repro.obs.telemetry.emit` sink for its lifetime (so breaker
  transitions, degradations, cache quarantines, deadline expiries and
  injected faults emitted deep inside ``resilience/`` land in the same
  log as the service's own request events), and records one
  ``service.request`` event per completed operation.

With no ``events_dir`` the log is memory-only (bounded ring) — the
default for embedded/test use; a served process passes
``--telemetry-dir`` to make it durable.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from ..obs import telemetry as obs_telemetry
from ..obs import tracing
from ..obs.telemetry import EventLog

#: a healthy request slower than this is "slow" and keeps its trace
DEFAULT_SLOW_S = 0.25

#: deterministic sample rate of healthy fast traces (1 in K)
DEFAULT_SAMPLE_EVERY = 20

#: in-memory ring of kept serialized traces
DEFAULT_KEPT_TRACES = 32


class TailSampler:
    """Post-hoc trace retention policy (thread-safe)."""

    def __init__(
        self,
        slow_s: float = DEFAULT_SLOW_S,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        kept_traces: int = DEFAULT_KEPT_TRACES,
    ):
        if slow_s <= 0:
            raise ValueError(f"slow_s must be > 0, got {slow_s}")
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.slow_s = float(slow_s)
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._kept: Deque[Dict[str, Any]] = deque(maxlen=kept_traces)
        self._kept_total = 0
        self._dropped_total = 0
        self._kept_by_reason: Dict[str, int] = {}

    def decide(
        self, trace_id: str, seconds: float,
        ok: bool = True, degraded: bool = False,
    ) -> Optional[str]:
        """The retention reason for this request, or ``None`` to drop.
        Pure — no counters move; :meth:`offer` is the recording path."""
        if not ok:
            return "error"
        if degraded:
            return "degraded"
        if seconds >= self.slow_s:
            return "slow"
        try:
            sampled = int(trace_id, 16) % self.sample_every == 0
        except (TypeError, ValueError):
            sampled = False
        return "sampled" if sampled else None

    def offer(
        self, tracer: tracing.Tracer, seconds: float,
        ok: bool = True, degraded: bool = False,
    ) -> Tuple[Optional[str], Optional[Dict[str, Any]]]:
        """Decide on one finished tracer; serialize it only when kept.
        Returns ``(reason, trace_dict)`` — both ``None`` on drop."""
        reason = self.decide(
            tracer.trace_id, seconds, ok=ok, degraded=degraded
        )
        if reason is None:
            with self._lock:
                self._dropped_total += 1
            return None, None
        trace = tracer.to_dict()
        with self._lock:
            self._kept.append(trace)
            self._kept_total += 1
            self._kept_by_reason[reason] = (
                self._kept_by_reason.get(reason, 0) + 1
            )
        return reason, trace

    def kept(self) -> List[Dict[str, Any]]:
        """The most recent kept traces (newest last)."""
        with self._lock:
            return list(self._kept)

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "slow_threshold_s": self.slow_s,
                "sample_every": self.sample_every,
                "kept_total": self._kept_total,
                "dropped_total": self._dropped_total,
                "kept_by_reason": dict(self._kept_by_reason),
            }


class ServiceTelemetry:
    """The service's always-on telemetry plane: event log + sampler."""

    def __init__(
        self,
        events_dir: Optional[str] = None,
        sampler: Optional[TailSampler] = None,
        max_bytes: int = obs_telemetry.DEFAULT_MAX_BYTES,
        max_files: int = obs_telemetry.DEFAULT_MAX_FILES,
        fsync: bool = True,
    ):
        self.events = EventLog(
            events_dir, max_bytes=max_bytes, max_files=max_files,
            fsync=fsync,
        )
        self.sampler = sampler if sampler is not None else TailSampler()
        self._installed = False

    # -- lifecycle -------------------------------------------------------

    def install(self) -> "ServiceTelemetry":
        """Start receiving :func:`repro.obs.telemetry.emit` events."""
        if not self._installed:
            obs_telemetry.install_sink(self._sink)
            self._installed = True
        return self

    def close(self) -> None:
        if self._installed:
            obs_telemetry.remove_sink(self._sink)
            self._installed = False
        self.events.close()

    def __enter__(self) -> "ServiceTelemetry":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _sink(self, type_: str, attrs: Mapping[str, Any]) -> None:
        self.events.record(type_, dict(attrs))

    # -- recording -------------------------------------------------------

    def record_request(
        self,
        op: str,
        seconds: float,
        ok: bool = True,
        degraded: bool = False,
        request_id: Optional[str] = None,
        error_kind: Optional[str] = None,
        stopped_at: Optional[str] = None,
        tracer: Optional[tracing.Tracer] = None,
        tier: Optional[str] = None,
    ) -> None:
        """One completed service operation: write its event, and (for
        traced ops) run the tail-sampling decision.  ``stopped_at`` is
        the checkpoint at which a hard timeout ended the request,
        ``tier`` the one of ``answer`` / ``join`` / ``compute`` at
        which an analyze ended."""
        attrs: Dict[str, Any] = {
            "op": op,
            "seconds": seconds,
            "ok": ok,
            "degraded": degraded,
        }
        if request_id:
            attrs["request_id"] = request_id
        if error_kind:
            attrs["error_kind"] = error_kind
        if stopped_at:
            attrs["stopped_at"] = stopped_at
        if tier:
            attrs["tier"] = tier
        if tracer is not None:
            # The tracer is already deactivated by the time the request
            # is recorded, so the join key is stamped explicitly.
            attrs["trace_id"] = tracer.trace_id
        self.events.record("service.request", attrs)
        if tracer is None:
            return
        reason, trace = self.sampler.offer(
            tracer, seconds, ok=ok, degraded=degraded
        )
        if reason is not None:
            self.events.record("trace.kept", {
                "trace_id": tracer.trace_id,
                "reason": reason,
                "seconds": seconds,
                "spans": len(trace.get("spans", [])),
                "trace": trace,
            })

    def describe(self) -> Dict[str, Any]:
        return {
            "events": self.events.describe(),
            "sampler": self.sampler.describe(),
        }
