"""The layout-analysis server.

Two layers:

- :class:`LayoutService` — the in-process engine: an answer cache in
  front of ``run_assistant``, per-stage wall-time metrics, and a
  per-request deadline.  Tests and embedders use it directly;
- :class:`LayoutServer` — a threaded TCP front end speaking the
  newline-delimited JSON protocol of :mod:`repro.service.protocol`.
  Connection threads share one cache and one metrics registry and are
  transport only: :meth:`LayoutService.handle_line` turns each request
  line into its reply line.  A connection carries any number of
  requests, and the client, :func:`send_request`, keeps one per thread.

A request stays on the thread that read it from the socket, from decode
to reply, and is served by the first of three tiers that can:

1. **answer** — the reply's content is cached under the request's key;
2. **join** — another request (the *leader*) is already computing that
   key: wait for it, then take the hit;
3. **compute** — everything else passes the
   :class:`~repro.resilience.admission.AdmissionController` first.
   Requests it cannot serve in time are shed with a typed
   ``overloaded`` error (plus ``retry_after_s``) instead of queueing
   into latency collapse; requests admitted under brownout get a
   clamped solver budget so the anytime/greedy fallbacks return fast
   labeled-degraded answers.  The request's one
   :class:`~repro.resilience.deadline.Deadline` carries the soft solver
   budget and the hard request timeout; past the latter the next
   cooperative checkpoint ends it with a typed ``timeout`` reply.

A draining service refuses new work, hits included, with a typed
``shutting-down`` rejection while every analyze in progress, ticketed
or not, finishes under the drain deadline.
"""

from __future__ import annotations

import json
import os
import select
import socket
import socketserver
import threading
import time
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..obs import tracing
from ..obs.log import get_logger
from ..obs.prometheus import render_prometheus
from ..obs.slo import Objective, SLOValidationError, evaluate_objectives
from ..obs.telemetry import emit as emit_event
from ..resilience.admission import AdmissionController, Ticket
from ..resilience.deadline import Deadline, deadline_scope
from ..resilience.degrade import collecting, noted_count
from ..resilience.errors import (
    InjectedFault,
    OverloadedError,
    RequestTimeout,
    ShuttingDownError,
)
from ..resilience.faults import fault_point
from ..tool.assistant import STAGES, run_assistant
from .cache import StageCache, StageKeys
from .errors import ConnectionIdleError, ServiceError
from .metrics import Metrics
from .pool import WorkerPool
from .protocol import (
    OPS,
    Answer,
    LayoutRequest,
    LayoutResponse,
    RetryPolicy,
    StageTiming,
    answer_of,
)
from .telemetry import ServiceTelemetry

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7861

#: hard cap on one request line; beyond it the connection is refused
#: with a typed error instead of buffering unboundedly
MAX_REQUEST_BYTES = 1 << 20

#: fraction of the hard request timeout handed to the solvers as a soft
#: deadline, leaving headroom to assemble a degraded-but-valid response
SOFT_DEADLINE_FRACTION = 0.8

#: solver budget (seconds) for requests admitted under brownout: short
#: enough that the anytime ILPs fall back to the labeled greedy paths,
#: long enough to produce a valid layout
DEFAULT_BROWNOUT_BUDGET_S = 0.25

#: floor on the post-queue-wait solver budget, so a request admitted
#: at the edge of its deadline still assembles a degraded response
MIN_EFFECTIVE_BUDGET_S = 0.05

#: default bound on one graceful drain
DEFAULT_DRAIN_DEADLINE_S = 10.0

#: per-connection socket timeout: an idle or slow-writing client gets
#: a typed timeout reply and its connection closed (slowloris guard)
DEFAULT_CONN_TIMEOUT_S = 300.0

logger = get_logger("repro.service")


def _error(message: str, kind: str) -> Dict[str, Any]:
    return {"ok": False, "error": message, "error_kind": kind}


def _line(reply: Dict[str, Any]) -> bytes:
    """A reply dict as its line on the wire."""
    return json.dumps(reply).encode("utf-8") + b"\n"


def check_objective_ops(objectives: List[Objective]) -> None:
    """Refuse an objective on an op the protocol does not have: the
    window it names can never fill, so it would read ``no-data`` — and
    pass — forever.  (Offline ``slo check --events`` takes its ops from
    the log instead, so :mod:`repro.obs.slo` cannot know this list.)"""
    for objective in objectives:
        if objective.op not in OPS:
            raise SLOValidationError(
                f"objective {objective.name!r}: unknown op "
                f"{objective.op!r}; the protocol's ops are "
                f"{', '.join(OPS)}"
            )


class LayoutService:
    """The long-lived analysis engine behind the protocol: look the
    answer up, on a miss run the assistant and keep its answer."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
        metrics: Optional[Metrics] = None,
        request_timeout: Optional[float] = None,
        use_cache: bool = True,
        telemetry: Optional[ServiceTelemetry] = None,
        objectives: Optional[List[Objective]] = None,
        admission: Optional[AdmissionController] = None,
        brownout_budget_s: float = DEFAULT_BROWNOUT_BUDGET_S,
    ):
        self.cache = StageCache(cache_dir)
        self.pool = pool if pool is not None else WorkerPool()
        self.metrics = metrics or Metrics()
        self.request_timeout = request_timeout
        self.use_cache = use_cache
        # Admission control defaults on, wired to the dependency
        # breakers: a tripped pool or cache breaker flips admitted
        # requests into brownout before shedding starts.
        self.admission = (
            admission if admission is not None
            else AdmissionController(
                breakers=[self.pool.breaker, self.cache.breaker]
            )
        )
        self.brownout_budget_s = float(brownout_budget_s)
        # The telemetry plane is always on: with no events_dir the log
        # is a bounded in-memory ring, so embedded use costs nothing on
        # disk.  Installing makes this service the process-wide sink
        # for resilience events (breaker trips, degradations, ...).
        self.telemetry = (
            telemetry if telemetry is not None else ServiceTelemetry()
        )
        self.telemetry.install()
        self.objectives = list(objectives or [])
        # the join table: answer key -> set when the request computing
        # it (its leader) is done, stored or not
        self._leaders: Dict[str, threading.Event] = {}
        self._leaders_lock = threading.Lock()
        # per thread: the drain deadline of a shutdown op it handled
        self._shutdowns = threading.local()

    def close(self) -> None:
        self.pool.shutdown()
        self.telemetry.close()

    def __enter__(self) -> "LayoutService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling ------------------------------------------------

    def _request_budget(
        self, request: LayoutRequest
    ) -> Optional[float]:
        """The solver time budget for one request: the explicit
        ``deadline_s`` if given, else a soft fraction of the hard
        request timeout (leaving headroom to build the degraded
        response before the hard limit cancels the request)."""
        if request.deadline_s is not None:
            return request.deadline_s
        if self.request_timeout is not None:
            return self.request_timeout * SOFT_DEADLINE_FRACTION
        return None

    # -- the three tiers ----------------------------------------------------

    def _lookup(
        self, key: str, timings: List[StageTiming]
    ) -> Optional[Answer]:
        """One ``answer`` lookup under a key known before any work,
        timed into ``timings``, the stage series and the cache
        counters; ``None`` on a miss."""
        with tracing.span("service.stage", stage="answer") as stage_span:
            start = perf_counter()
            hit, answer = self.cache.load("answer", key)
            seconds = perf_counter() - start
            stage_span.set_attr("cache_hit", hit)
        timings.append(StageTiming("answer", seconds, hit))
        self.metrics.observe_stage("answer", seconds)
        self.metrics.record_cache("answer", hit)
        return answer if hit else None

    def _lead(self, key: str) -> bool:
        """Tier 2.  True: nothing is computing ``key``, and this request
        leads it from now until :meth:`analyze` lets go.  False: another
        request was, and is done — what it kept is an ordinary hit now.
        The wait is bounded by the follower's own hard timeout."""
        with self._leaders_lock:
            done = self._leaders.get(key)
            if done is None:
                self._leaders[key] = threading.Event()
                return True
        if not done.wait(self.request_timeout):
            raise RequestTimeout(
                f"request exceeded {self.request_timeout:g}s "
                "(stopped at join)", stopped_at="join",
            )
        return False

    def _compute(
        self, request: LayoutRequest, key: Optional[str],
        timings: List[StageTiming],
    ) -> Answer:
        """Tier 3's work: :func:`run_assistant`, its six stages timed by
        their own ``stage:*`` spans, the reply's content
        (:func:`answer_of`) encoded once, and one store of both when the
        request has a ``key``."""
        clean = noted_count()
        # only a pool that was asked for is handed the estimation batch
        pooled = self.pool.requested_kind != "serial"
        answer = Answer.of(answer_of(run_assistant(
            request.resolve_source(), request.resolve_config(),
            job_runner=self.pool.run_jobs if pooled else None,
        )))
        # A degraded answer is never kept: a later request with a full
        # budget must compute the exact one, not inherit the fallback.
        if key is not None and noted_count() == clean:
            self.cache.store("answer", key, answer)
        spans = tracing.active_tracer().durations_by_name()
        timings.extend(
            StageTiming(stage, spans[f"stage:{stage}"][0], False)
            for stage in STAGES
        )
        return answer

    def _deadline(
        self, budget_s: Optional[float], ticket: Ticket
    ) -> Optional[Deadline]:
        """The admitted request's deadline.  Whatever it queued for came
        out of its own budget; under brownout (counted here) the budget
        is clamped so the anytime solvers take their labeled greedy
        fallbacks instead of queue-building."""
        if budget_s is not None:
            # the floor only guards against queue wait eating the whole
            # budget; it must never *raise* an explicitly tiny deadline
            budget_s = max(
                budget_s - ticket.waited_s,
                min(budget_s, MIN_EFFECTIVE_BUDGET_S),
            )
        if ticket.brownout:
            self.metrics.inc("requests_brownout")
            budget_s = (
                self.brownout_budget_s if budget_s is None
                else min(budget_s, self.brownout_budget_s)
            )
        if budget_s is None:
            return None
        return Deadline(budget_s, hard_s=self.request_timeout)

    def analyze(self, request: LayoutRequest) -> LayoutResponse:
        """Serve one analyze request (never raises) by the first tier
        that can.  A hit skips what only a compute needs — ticket,
        deadline, degradation collector, and the tracer unless the
        client asked for its trace — and teaches the limiter nothing.
        A follower waits under its own hard timeout and then takes the
        hit, or computes if its leader kept nothing (failed, timed out,
        degraded).  A compute runs admitted, under a deadline and a
        tracer whose spans feed the registry, and stores its answer.
        Draining, or with ``use_cache: false``, there is only that."""
        self.metrics.inc("requests_total")
        start = perf_counter()
        admission = self.admission  # read per request: embedders swap it
        cached = admission.enter() and self.use_cache and request.use_cache
        # A client that asked for its trace is traced from the lookup
        # on; a compute otherwise gets a tracer at admission.
        tracer = tracing.Tracer(name="request") if request.trace else None
        tier, key, leading, answer = "answer", None, False, None
        timings: List[StageTiming] = []
        degradations: List[Dict[str, Any]] = []
        try:
            if cached:
                with tracing.activate(tracer):
                    key = request.answer_key()
                    answer = self._lookup(key, timings)
                    if answer is None:
                        tier = "join"
                        leading = self._lead(key)
                        if not leading:
                            timings = []
                            answer = self._lookup(key, timings)
            if answer is None:
                # Admission sheds, before any work starts, a request it
                # predicts cannot be served within its own budget; only
                # computes get here, so its limiter samples nothing else.
                tier = "compute"
                tracer = tracer or tracing.Tracer(name="request")
                budget_s = self._request_budget(request)
                ticket = admission.try_acquire(budget_s)
                admitted, served_ok, timed_out = perf_counter(), False, False
                try:
                    with tracing.activate(tracer), deadline_scope(
                        self._deadline(budget_s, ticket)
                    ), collecting() as events, tracing.span(
                        "request",
                        request_id=request.request_id or "",
                        program=request.program or "<source>",
                    ):
                        answer = self._compute(request, key, timings)
                    degradations = [e.to_dict() for e in events]
                    served_ok = True
                except RequestTimeout:
                    # the hard limit firing at a checkpoint: the
                    # limiter's strongest congestion signal
                    timed_out = True
                    raise
                finally:
                    admission.release(
                        ticket, perf_counter() - admitted,
                        ok=served_ok, timed_out=timed_out,
                    )
            self.metrics.inc("requests_ok")
            if tier == "join":
                self.metrics.inc("requests_joined")
            if degradations:
                self.metrics.inc("requests_degraded")
                logger.warning(
                    "request %s degraded: %s",
                    request.request_id or "<anonymous>",
                    "; ".join(
                        f"{d['stage']}:{d['reason']}" for d in degradations
                    ),
                )
            seconds = perf_counter() - start
            self.metrics.observe_stage("request", seconds)
            self._record_analyze(
                request, tracer, seconds, tier,
                ok=True, degraded=bool(degradations),
            )
            response = LayoutResponse.from_answer(
                answer.value, timings, request_id=request.request_id,
                degradations=degradations, text=answer.text,
            )
            if request.trace:
                response.trace = tracer.to_dict()
            return response
        except Exception as exc:
            shed = isinstance(exc, (OverloadedError, ShuttingDownError))
            self.metrics.inc("requests_failed")
            if shed:
                self.metrics.inc("requests_shed")
            if isinstance(exc, RequestTimeout):
                self.metrics.inc("requests_timeout")
            logger.warning(
                "request %s %s: %s", request.request_id or "<anonymous>",
                "shed" if shed else "failed", exc,
            )
            self._record_analyze(
                request, tracer, perf_counter() - start, tier, ok=False,
                error_kind=getattr(exc, "kind", "internal"),
                stopped_at=getattr(exc, "stopped_at", None),
            )
            return LayoutResponse.failure(
                exc, request_id=request.request_id
            )
        finally:
            # followers first, then whoever waits for the service to
            # go idle: this request's event is written by now
            if leading:
                with self._leaders_lock:
                    self._leaders.pop(key).set()
            admission.leave()

    def _record_analyze(
        self, request: LayoutRequest, tracer: Optional[tracing.Tracer],
        seconds: float, tier: str, ok: bool, degraded: bool = False,
        error_kind: Optional[str] = None,
        stopped_at: Optional[str] = None,
    ) -> None:
        """Feed one finished analyze into the sliding window and the
        event log, and what it traced — whatever ran, also of a request
        that failed — into the registry: every span into the span
        aggregates, the ``stage:*`` ones into the stage series too
        (the durations the reply's ``stage_timings`` carry).  The tail
        sampler serializes the trace only when it decides to keep it."""
        if tracer is not None:
            for name, durations in tracer.durations_by_name().items():
                for span_s in durations:
                    self.metrics.observe_span(name, span_s)
                    if name.startswith("stage:"):
                        self.metrics.observe_stage(
                            name.removeprefix("stage:"), span_s
                        )
        self.metrics.observe_op(
            "analyze", seconds, ok=ok, degraded=degraded
        )
        self.telemetry.record_request(
            "analyze", seconds, ok=ok, degraded=degraded,
            request_id=request.request_id, error_kind=error_kind,
            stopped_at=stopped_at, tracer=tracer, tier=tier,
        )

    def analyze_dict(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._analyze_payload(payload).to_dict()

    def _analyze_payload(self, payload: Dict[str, Any]) -> LayoutResponse:
        try:
            request = LayoutRequest.from_dict(payload)
        except ServiceError as exc:
            self.metrics.inc("requests_total")
            self.metrics.inc("requests_failed")
            return LayoutResponse.failure(
                exc, request_id=payload.get("request_id")
            )
        return self.analyze(request)

    def stats(self) -> Dict[str, Any]:
        """The one snapshot tree every reader walks (``top``, the
        exposition table, the bench, CI): the registry's sections plus
        each component's ``describe()`` block, each number once."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"].update(self.cache.describe())
        snapshot["admission"] = self.admission.describe()
        snapshot["telemetry"] = self.telemetry.describe()
        snapshot["pool"] = self.pool.describe()
        return snapshot

    def prometheus(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return render_prometheus(self.stats())

    def slo_report(
        self, objectives: Optional[List[Objective]] = None,
        require_data: bool = False,
    ) -> Dict[str, Any]:
        """Evaluate objectives (given or configured) against the live
        sliding windows; returns the serialized report."""
        report = evaluate_objectives(
            objectives if objectives is not None else self.objectives,
            self.metrics.window_snapshot(),
            require_data=require_data,
        )
        return report.to_dict()

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded protocol message; the reply as a dict,
        for in-process callers."""
        reply = self._dispatch(payload)
        if isinstance(reply, LayoutResponse):
            return reply.to_dict()
        return reply

    def handle_line(self, line: bytes) -> bytes:
        """One request line in, its reply line out: decode, the
        dispatch :meth:`handle` runs, encode — an analyze reply through
        :meth:`LayoutResponse.encode`, so a hit's answer is not encoded
        again.  Never raises: what fails is a typed error reply."""
        try:
            try:
                payload = json.loads(line)
            except ValueError as exc:  # not JSON, or not UTF-8
                reply = self._bad_request(f"bad JSON: {exc}")
            else:
                reply = self._dispatch(payload)
            if isinstance(reply, LayoutResponse):
                return reply.encode()
            return _line(reply)
        except Exception as exc:  # defense in depth: never leave the
            # connection without a typed reply
            logger.warning("handler crashed: %s", exc, exc_info=True)
            return _line(_error(f"{type(exc).__name__}: {exc}",
                                getattr(exc, "kind", "internal")))

    def take_shutdown(self) -> Optional[float]:
        """The drain deadline of a ``shutdown`` op this thread handled
        since it last asked, else ``None``: the connection that sent it
        stops the server once the reply is out."""
        deadline_s = getattr(self._shutdowns, "deadline_s", None)
        self._shutdowns.deadline_s = None
        return deadline_s

    def _bad_request(self, message: str) -> Dict[str, Any]:
        """A refused message, counted as a failed request."""
        self.metrics.inc("requests_total")
        self.metrics.inc("requests_failed")
        return _error(message, "bad-request")

    def _dispatch(
        self, payload: Any
    ) -> Union[LayoutResponse, Dict[str, Any]]:
        """The one dispatch behind :meth:`handle` and
        :meth:`handle_line`: an analyze reply stays a
        :class:`LayoutResponse` for its caller to render."""
        if not isinstance(payload, dict):
            return self._bad_request(
                "a request is a JSON object, not "
                f"{type(payload).__name__}"
            )
        op = payload.get("op", "analyze")
        logger.debug("handling op %r", op)
        try:
            fault_point("service.request")
        except InjectedFault as exc:
            self.metrics.inc("requests_total")
            self.metrics.inc("requests_failed")
            if op in OPS:
                self.metrics.observe_op(op, 0.0, ok=False)
                self.telemetry.record_request(
                    op, 0.0, ok=False, error_kind=exc.kind,
                    request_id=payload.get("request_id"),
                )
            return {"ok": False, "error": str(exc),
                    "error_kind": exc.kind,
                    "request_id": payload.get("request_id")}
        if op == "analyze":
            # analyze records its own telemetry (it has the tracer)
            return self._analyze_payload(payload)
        start = perf_counter()
        response = self._handle_light(op, payload)
        if op in OPS:
            seconds = perf_counter() - start
            ok = bool(response.get("ok"))
            self.metrics.observe_op(op, seconds, ok=ok)
            self.telemetry.record_request(
                op, seconds, ok=ok,
                request_id=payload.get("request_id"),
                error_kind=None if ok else response.get("error_kind"),
            )
        return response

    def _handle_light(
        self, op: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The non-analyze ops (cheap, no tracer of their own)."""
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "metrics":
            return {"ok": True, "op": "metrics",
                    "text": self.prometheus()}
        if op == "slo":
            raw = payload.get("objectives")
            try:
                if raw is not None:
                    if not isinstance(raw, list) or not raw:
                        raise SLOValidationError(
                            "'objectives' must be a non-empty list"
                        )
                    objectives = [Objective.from_dict(o) for o in raw]
                    check_objective_ops(objectives)
                elif self.objectives:
                    objectives = None  # use the configured set
                else:
                    raise SLOValidationError(
                        "no objectives configured on this server; "
                        "pass 'objectives' in the request"
                    )
            except SLOValidationError as exc:
                return _error(str(exc), "bad-request")
            require_data = bool(payload.get("require_data", False))
            return {"ok": True, "op": "slo",
                    "report": self.slo_report(
                        objectives, require_data=require_data)}
        if op == "events":
            try:
                limit = int(payload.get("limit", 100))
            except (TypeError, ValueError):
                return _error("'limit' must be an integer", "bad-request")
            events = self.telemetry.events.tail(
                limit=limit, type=payload.get("type")
            )
            return {"ok": True, "op": "events", "events": events,
                    "telemetry": self.telemetry.describe()}
        if op == "health":
            admission = self.admission.describe()
            return {
                "ok": True, "op": "health",
                "status": "draining" if admission["draining"] else "ok",
                "admission": admission,
            }
        if op == "ready":
            admission = self.admission.describe()
            ready = (
                not admission["draining"]
                and admission["queue_depth"] < self.admission.max_queue
            )
            return {
                "ok": True, "op": "ready", "ready": ready,
                "draining": admission["draining"],
                "queue_depth": admission["queue_depth"],
                "in_flight": admission["in_flight"],
                "limit": admission["limiter"]["limit"],
            }
        if op == "shutdown":
            logger.info("shutdown requested over the protocol")
            # flip into drain immediately so the reply already reflects
            # it; the TCP layer runs the bounded drain + stop afterward
            self.begin_drain()
            try:
                self._shutdowns.deadline_s = float(payload.get(
                    "drain_deadline_s", DEFAULT_DRAIN_DEADLINE_S
                ))
            except (TypeError, ValueError):
                self._shutdowns.deadline_s = DEFAULT_DRAIN_DEADLINE_S
            admission = self.admission.describe()
            return {
                "ok": True, "op": "shutdown", "draining": True,
                "in_flight": admission["in_flight"],
                "queue_depth": admission["queue_depth"],
            }
        logger.warning("rejecting unknown op %r", op)
        return self._bad_request(f"unknown op {op!r}")

    # -- graceful drain ----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting new analyze work (typed ``shutting-down``
        rejections); in-flight requests keep running."""
        self.admission.begin_drain()

    def drain(
        self, deadline_s: float = DEFAULT_DRAIN_DEADLINE_S
    ) -> Dict[str, Any]:
        """Begin (or continue) draining and wait — bounded by
        ``deadline_s`` — for every analyze in progress, ticketed or
        not, to finish.  The drain outcome is recorded in the telemetry
        event log and the log synced, so the record is durable before
        this returns."""
        start = perf_counter()
        self.begin_drain()
        drained = self.admission.wait_idle(deadline_s)
        admission = self.admission.describe()
        report = {
            "drained": drained,
            "waited_s": round(perf_counter() - start, 4),
            "deadline_s": deadline_s,
            # ticket holders, and whoever is mid-reply without one
            "in_flight": max(admission["in_flight"],
                             admission["in_progress"]),
            "rejected_draining":
                admission["counters"]["rejected_draining"],
        }
        if not drained:
            logger.warning(
                "drain deadline %ss expired with %d request(s) in flight",
                deadline_s, report["in_flight"],
            )
        emit_event("service.drain", phase="end", **report)
        self.telemetry.events.sync()
        return report


class _RequestHandler(socketserver.StreamRequestHandler):
    """Transport only: bounded request lines in, under an idle timeout,
    and :meth:`LayoutService.handle_line`'s replies out; a connection
    carries any number of requests."""

    def setup(self) -> None:
        # StreamRequestHandler applies self.timeout as the socket
        # timeout; without it an idle or byte-at-a-time client pins
        # this handler thread forever (slowloris)
        self.timeout = getattr(self.server, "conn_timeout_s", None)
        super().setup()
        self.server.service.metrics.inc("connections_total")

    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        service = self.server.service
        while True:
            # Bounded read: a line longer than MAX_REQUEST_BYTES gets a
            # typed refusal and the connection closes (the remainder of
            # the oversized line cannot be resynchronized).
            try:
                raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except socket.timeout:
                exc = ConnectionIdleError(
                    "connection idle longer than "
                    f"{self.timeout}s; closing"
                )
                try:
                    self._reply(_line(_error(str(exc), exc.kind)))
                except (OSError, InjectedFault):
                    pass
                return
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                self._reply(_line(_error(
                    f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                    "request-too-large",
                )))
                return
            line = raw.strip()
            if not line:
                continue
            try:
                self._reply(service.handle_line(line))
            except InjectedFault as exc:
                # the reply path itself faulted: try once to tell the
                # client, then give the connection up cleanly
                try:
                    self.wfile.write(_line(_error(str(exc), exc.kind)))
                    self.wfile.flush()
                except OSError:
                    pass
                return
            drain_deadline_s = service.take_shutdown()
            if drain_deadline_s is not None:
                threading.Thread(
                    target=self.server.graceful_shutdown,
                    args=(drain_deadline_s,),
                    daemon=True,
                ).start()
                return
            if service.admission.draining:
                # the client's next request opens a new connection and
                # meets the listener as it is now: typed refusals
                # during the drain, a refused connection after it
                return

    def _reply(self, line: bytes) -> None:
        fault_point("server.reply")
        self.wfile.write(line)
        self.wfile.flush()


class LayoutServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end; one shared :class:`LayoutService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: LayoutService,
        conn_timeout_s: Optional[float] = DEFAULT_CONN_TIMEOUT_S,
    ):
        super().__init__(address, _RequestHandler)
        self.service = service
        self.conn_timeout_s = conn_timeout_s
        # the accepted sockets not yet closed, for server_close
        self._open_lock = threading.Lock()
        self._open: Set[socket.socket] = set()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, then shut down every connection still
        open: a handler waiting for a kept connection's next request
        reads EOF and its thread ends, so none outlives the server."""
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def serve_background(self) -> threading.Thread:
        """Start serving on a daemon thread (tests, smoke checks)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def graceful_shutdown(
        self, drain_deadline_s: float = DEFAULT_DRAIN_DEADLINE_S
    ) -> Dict[str, Any]:
        """Drain, then stop the accept loop.

        The accept loop keeps running *during* the drain on purpose:
        new analyze requests must receive typed ``shutting-down``
        replies, not connection resets.  Only once in-flight work has
        finished (or the drain deadline expired) does the listener
        stop."""
        report = self.service.drain(drain_deadline_s)
        self.shutdown()
        return report


#: what sending on, or reading from, a connection the server has
#: already closed raises
_CLOSED_BY_PEER = (BrokenPipeError, ConnectionResetError,
                   ConnectionAbortedError)


class _Connection:
    """A client connection, kept by the thread that opened it for its
    next request to the same endpoint (see :func:`send_request`)."""

    def __init__(self, endpoint: Tuple[str, int], sock: socket.socket):
        self.sock = sock
        self.endpoint = endpoint
        self.pid = os.getpid()
        self.reused = False

    def reusable_for(self, endpoint: Tuple[str, int]) -> bool:
        """Same endpoint, same process, and nothing to read: readable
        would mean EOF, or the server's idle-timeout reply — either way
        the server is done with this connection."""
        if self.endpoint != endpoint or self.pid != os.getpid():
            return False
        try:
            readable, _, _ = select.select([self.sock], [], [], 0)
        except (OSError, ValueError):  # closed
            return False
        return not readable

    def exchange(self, request: bytes, timeout: float) -> bytes:
        """Send one request line and return its reply line, or ``b""``
        when a reused connection turns out closed before any reply byte
        arrived: the request never reached the server.  Anything else
        short of a whole reply raises, except a partial line, returned
        for the decoder to refuse; either way the connection closes."""
        reused, self.reused = self.reused, True
        chunks: List[bytes] = []
        try:
            self.sock.settimeout(timeout)
            self.sock.sendall(request)
            while True:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                # a JSON line holds no other newline
                if chunk.endswith(b"\n"):
                    return b"".join(chunks)
        except _CLOSED_BY_PEER:
            self.close()
            if chunks or not reused:
                raise
            return b""
        except BaseException:
            self.close()
            raise
        self.close()
        if not chunks and not reused:
            raise ServiceError(
                "server closed the connection without a reply"
            )
        return b"".join(chunks)

    def close(self) -> None:
        self.sock.close()

    # a thread's kept connection closes when the thread exits
    __del__ = close


_kept = threading.local()


def send_request(
    payload: Dict[str, Any],
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    timeout: float = 300.0,
) -> Dict[str, Any]:
    """Client side: one request, one decoded response.

    Each thread keeps one connection, to the endpoint it last sent to,
    and sends its next request there if the server has not closed it
    meanwhile.  A kept connection found closed before any reply byte
    arrives (a reset, a broken pipe, EOF) never delivered the request,
    which is resent once on a fresh connection.  Anything else — a
    timeout, a partial reply, any failure on a fresh connection — is
    raised and never resent: the server may still be computing.  A
    connection opened by another process (before a fork) is never
    used."""
    request = json.dumps(payload).encode("utf-8") + b"\n"
    endpoint = (host, port)
    conn = getattr(_kept, "conn", None)
    if conn is not None:
        if conn.reusable_for(endpoint):
            reply = conn.exchange(request, timeout)
            if reply:
                return json.loads(reply)
        conn.close()
    conn = _kept.conn = _Connection(
        endpoint, socket.create_connection(endpoint, timeout=timeout)
    )
    return json.loads(conn.exchange(request, timeout))


def send_request_with_retries(
    payload: Dict[str, Any],
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    timeout: float = 300.0,
    policy: Optional[RetryPolicy] = None,
    send: Optional[Callable[..., Dict[str, Any]]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Client side with overload hygiene: retries only typed
    ``overloaded`` rejections, up to the policy's attempts, backing
    off no sooner than the server's ``retry_after_s`` hint.  Everything
    else — including ``shutting-down`` — is returned as-is; ``send``
    and ``sleep`` are injectable for tests."""
    policy = policy or RetryPolicy()
    send_fn = send or send_request
    attempt = 0
    while True:
        response = send_fn(payload, host=host, port=port, timeout=timeout)
        if response.get("ok"):
            return response
        kind = response.get("error_kind")
        if not policy.should_retry(attempt, kind):
            return response
        sleep(policy.delay_s(attempt, response.get("retry_after_s")))
        attempt += 1
