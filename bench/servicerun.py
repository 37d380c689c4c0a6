"""The two service workloads: ``repro serve`` as a subprocess with its
defaults, a fresh cache and telemetry directory, and clients that send
one ``send_request`` per op over two connections."""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.service.server import send_request

import expected
import inputs
from calibration import CalibratorProcess, Timeline
from common import (
    ROOT,
    TMP_ROOT,
    SetupClock,
    group_cpu_s,
    group_peak_rss_mb,
    group_stats,
    mean,
    percentile,
)

#: the server's own hard request timeout; clients wait a little longer
#: so that a late reply is read (and counted as failed), not abandoned
SERVER_REQUEST_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = SERVER_REQUEST_TIMEOUT_S + 5.0

# The server runs with its defaults but for one setting.  Its adaptive
# concurrency limit learns its latency floor from 2 ms cache hits, reads
# the first 60 ms miss as congestion and falls to 1; from then on every
# second request in flight is admitted under brownout, whose default
# solver budget (0.25 s) two concurrent cold requests can exceed on a
# small machine.  Such a reply comes back `degraded`, which here is a
# failed op, and no workload may contain ops that fail: so the brownout
# budget is raised to the request timeout.  Brownout admissions are
# still counted (`admission.brownout`).

#: requests sent after priming and before the clock starts, so the
#: server's memory LRU holds what a long-running server's would
LRU_WARMUP_OPS = 100

#: closed-loop throughput is the median over slices of this length
SLICE_S = 1.0

#: an open-loop request counts as sent late beyond this lag
LATE_S = 0.005


class Server:
    """``python -m repro.tool.cli serve`` in its own process group, on
    a free port, with fresh directories under the checkout."""

    def __init__(self) -> None:
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT)
        self.cache_dir = os.path.join(self.workdir, "cache")
        self.telemetry_dir = os.path.join(self.workdir, "telemetry")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.proc: Optional[subprocess.Popen] = None
        self.pgid = -1

    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        log = open(os.path.join(self.workdir, "server.log"), "wb")
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.tool.cli", "serve",
                 "--port", str(self.port),
                 "--cache-dir", self.cache_dir,
                 "--telemetry-dir", self.telemetry_dir,
                 "--request-timeout", str(SERVER_REQUEST_TIMEOUT_S),
                 "--brownout-budget", str(SERVER_REQUEST_TIMEOUT_S)],
                env=env, cwd=self.workdir, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
        self.pgid = self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        give_up = perf_counter() + timeout_s
        while True:
            try:
                if self.request({"op": "ping"}, timeout=2.0).get("ok"):
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_tail()
                )
            if perf_counter() > give_up:
                raise RuntimeError("server not ready: " + self.log_tail())
            time.sleep(0.02)

    def request(self, payload: Dict[str, Any],
                timeout: float = CLIENT_TIMEOUT_S) -> Dict[str, Any]:
        return send_request(payload, port=self.port, timeout=timeout)

    def log_tail(self) -> str:
        try:
            with open(os.path.join(self.workdir, "server.log"),
                      encoding="utf-8", errors="replace") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def _live(self) -> List[int]:
        """Group members still running (a zombie holds no resources)."""
        return [pid for pid, fields in group_stats(self.pgid).items()
                if fields[0] != b"Z"]

    def stop(self) -> None:
        """Ask for a graceful shutdown, then kill the whole group; fail
        if anything outlives the kill."""
        if self.proc is None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            return
        try:
            if self.proc.poll() is None:
                self.request({"op": "shutdown"}, timeout=5.0)
                self.proc.wait(timeout=15.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        give_up = perf_counter() + 5.0
        while self._live() and perf_counter() < give_up:
            time.sleep(0.05)
        survivors = self._live()
        shutil.rmtree(self.workdir, ignore_errors=True)
        if survivors:
            raise RuntimeError(f"server processes survived: {survivors}")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Sample:
    """One op as the client saw it."""

    __slots__ = ("op", "seconds", "end_s", "lag_s", "answer", "error",
                 "hits", "lookups", "stage_s")

    def __init__(self, op: inputs.ServiceOp):
        self.op = op
        self.seconds = 0.0  # as measured
        self.end_s = 0.0  # completion time, from the start of the loop
        self.lag_s = 0.0  # open loop: sent this long after it was due
        self.answer: Optional[expected.Answer] = None
        self.error: Optional[str] = None
        self.hits = 0
        self.lookups = 0
        self.stage_s: Dict[str, float] = {}


def _send(server: Server, sample: Sample) -> None:
    """One op: send, wait, read the answer off the reply."""
    try:
        reply = server.request(sample.op.payload)
    except (OSError, ValueError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
        return
    if not reply.get("ok"):
        sample.error = reply.get("error_kind") or "untyped-error"
        return
    if reply.get("degraded"):
        sample.error = "degraded"
    sample.answer = expected.answer_of_reply(reply)
    sample.hits = reply["cache_hits"]
    sample.lookups = reply["cache_hits"] + reply["cache_misses"]
    for timing in reply["stage_timings"]:
        sample.stage_s[timing["stage"]] = timing["seconds"]


def _on_threads(work, plans) -> List[Sample]:
    """One thread per connection: ``work(plan, out)`` fills ``out``."""
    results: List[List[Sample]] = [[] for _ in plans]
    threads = [
        threading.Thread(target=work, args=(plan, out))
        for plan, out in zip(plans, results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for out in results for sample in out]


def closed_loop(server: Server, streams, seconds: float) -> List[Sample]:
    """Each connection sends its next request when the last one was
    answered, until ``seconds`` have passed."""
    start = perf_counter() + 0.01
    deadline = start + seconds

    def client(stream, out: List[Sample]) -> None:
        time.sleep(max(start - perf_counter(), 0.0))
        index = 0
        while True:
            begin = perf_counter()
            if begin >= deadline:
                return
            sample = Sample(stream[index % len(stream)])
            index += 1
            _send(server, sample)
            end = perf_counter()
            sample.seconds = end - begin
            sample.end_s = end - start
            out.append(sample)

    return _on_threads(client, streams)


def open_loop(server: Server, arrivals) -> List[Sample]:
    """Every arrival is sent when it is due, whatever happened to the
    ones before it; latency runs from the due time."""
    per_sender: List[List[Tuple[float, inputs.ServiceOp]]] = [
        [] for _ in range(inputs.SERVICE_CONNECTIONS)
    ]
    for arrival in arrivals:
        for sender, op in arrival.ops:
            per_sender[sender].append((arrival.due_s, op))
    start = perf_counter() + 0.05

    def sender(schedule, out: List[Sample]) -> None:
        for due_s, op in schedule:
            due = start + due_s
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            sample = Sample(op)
            sample.lag_s = max(perf_counter() - due, 0.0)
            _send(server, sample)
            end = perf_counter()
            sample.seconds = end - due
            sample.end_s = end - start
            out.append(sample)

    return _on_threads(sender, per_sender)


def set_up(server: Server, workload: str, seed: int, seconds: float,
           clock: SetupClock):
    """Server start, readiness, priming, then the seeded op list."""
    with clock.segment("server_ready"):
        server.start()
        server.wait_ready()
    with clock.segment("prime"):
        primed = inputs.primed_set()
        for op in primed:
            sample = Sample(op)
            _send(server, sample)
            if sample.error:
                raise RuntimeError(f"priming {op.key}: {sample.error}")
        # replay the tail of the closed-loop stream so the memory LRU
        # starts the timed section in its steady state
        for op in inputs.warm_streams(seed, LRU_WARMUP_OPS)[0]:
            _send(server, Sample(op))
    with clock.segment("inputs"):
        if workload == "service-warm":
            # a stream longer than any connection can get through
            plan = inputs.warm_streams(seed, int(seconds * 1500) + 100)
            digest = inputs.digest([op for s in plan for op in s])
        else:
            plan = inputs.open_arrivals(seed, seconds)
            digest = inputs.digest(
                [op for a in plan for _, op in a.ops]
            )
    return plan, digest


def set_up_only(workload: str, seed: int, clock: SetupClock,
                timeline: Timeline) -> float:
    """What a set-up probe runs: everything before the first timed op,
    and the teardown that a run owes.  Returns the factor to scale the
    clock's total by."""
    calibrator = CalibratorProcess()
    try:
        begin = perf_counter()
        with Server() as server:
            set_up(server, workload, seed, 1.0, clock)
            end = perf_counter()
    finally:
        machine = calibrator.stop()
    return machine.floor_factor(begin, end)


def _drive(server: Server, workload: str, plan, seconds: float
           ) -> Tuple[List[Sample], float]:
    """Run the workload's loop; returns the samples and the wall time
    they took."""
    begin = perf_counter()
    if workload == "service-warm":
        samples = closed_loop(server, plan, seconds)
    else:
        samples = open_loop(server, plan)
    return samples, perf_counter() - begin


def _throughput(workload: str, samples: List[Sample], wall_s: float,
                failed: int, scale: float) -> float:
    good_share = 1 - failed / len(samples)
    if workload == "service-open":
        # the schedule fixes the rate, whatever the machine's speed;
        # what can move is the share of ops that completed and verified
        return len(samples) * good_share / wall_s
    # closed loop: the median count of ops completed per slice (the
    # last, partial slice left out), over the slice's scaled length
    slices: Dict[int, int] = {}
    for sample in samples:
        index = int(sample.end_s / SLICE_S)
        slices[index] = slices.get(index, 0) + 1
    last = max(slices)
    full = [n for index, n in slices.items() if index < last or last == 0]
    return median(full) / (SLICE_S * scale) * good_share


def run(workload: str, seed: int, seconds: float, clock: SetupClock,
        timeline: Timeline, setup_probes: List[float]) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric."""
    calibrator = CalibratorProcess()
    try:
        setup_begin = perf_counter()
        with Server() as server:
            plan, digest = set_up(server, workload, seed, seconds, clock)
            drive_begin = perf_counter()
            cpu_start = group_cpu_s(server.pgid)
            samples, wall_s = _drive(server, workload, plan, seconds)
            cpu_s = group_cpu_s(server.pgid) - cpu_start
            drive_end = perf_counter()
            peak_rss_mb = group_peak_rss_mb(server.pgid)
    finally:
        machine = calibrator.stop()
    # one machine-speed factor for the whole timed section
    scale = machine.floor_factor(drive_begin, drive_end)
    setup_s = median(setup_probes + [
        clock.total_s * machine.floor_factor(setup_begin, drive_begin)
    ])
    failed, wrong, reasons = expected.verify(
        samples, inputs.OP_LIMIT_S[workload]
    )
    raw_ms = [s.seconds * 1e3 for s in samples]
    return {
        "digest": digest,
        "attempted": len(samples),
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons,
        "metrics": {
            "setup_s": setup_s,
            "throughput_ops_s": _throughput(
                workload, samples, wall_s, failed, scale
            ),
            "latency_p50_ms": percentile(raw_ms, 50) * scale,
            "latency_p90_ms": percentile(raw_ms, 90) * scale,
            "cpu_ms_per_op": cpu_s * 1e3 / len(samples) * scale,
            "peak_rss_mb": peak_rss_mb,
        },
        "notes": {
            "latency_samples": len(samples),
            "timed_wall_s": round(wall_s, 3),
            "machine_scale": scale,
            "calibrator_samples": len(machine.times),
            "raw_throughput_ops_s": _throughput(
                workload, samples, wall_s, failed, 1.0
            ),
            "raw_latency_p50_ms": percentile(raw_ms, 50),
            "raw_latency_p90_ms": percentile(raw_ms, 90),
            "raw_cpu_ms_per_op": cpu_s * 1e3 / len(samples),
            "raw_setup_s": clock.total_s,
            "setup_segments": clock.segments,
        },
    }


# -- the traced run --------------------------------------------------------

#: share of a traced run's seconds spent on the client loop against the
#: real server; the in-process walk below takes a few seconds more
CLIENT_SHARE = 0.6

#: repetitions of the in-process walk per program and cache state
WALK_COLD, WALK_MEM, WALK_DISK = 3, 24, 8
PINGS = 60


def _stats(server: Server) -> Dict[str, Any]:
    return server.request({"op": "stats"})["stats"]


def _ping_us(server: Server) -> float:
    """One connection, one light op, one reply: socket handling and
    the handler thread without any analysis."""
    times = []
    for _ in range(PINGS):
        begin = perf_counter()
        server.request({"op": "ping"})
        times.append(perf_counter() - begin)
    return median(times) * 1e6


class Walker:
    """One request's path through the service, walked in this process
    on one thread, layer by layer, from outside: every step is a call
    into a public function of the layer, under a span."""

    def __init__(self, workdir: str):
        from repro.resilience.admission import (
            AdaptiveConcurrencyLimiter,
            AdmissionController,
        )
        from repro.resilience.breaker import Backoff
        from repro.service import (
            LayoutService,
            Metrics,
            ServiceTelemetry,
            StageCache,
            TailSampler,
            WorkerPool,
        )

        def admission(pool, cache):
            # what `repro serve` builds from its defaults
            return AdmissionController(
                limiter=AdaptiveConcurrencyLimiter(
                    initial_limit=8, max_limit=64
                ),
                breakers=[pool.breaker, cache.breaker],
            )

        self.workdir = workdir
        self.pool = WorkerPool(backoff=Backoff(base_s=0.05))
        self.cache = StageCache(os.path.join(workdir, "walk-cache"))
        self.admission = admission(self.pool, self.cache)
        self.telemetry = ServiceTelemetry(
            events_dir=os.path.join(workdir, "walk-telemetry"),
            sampler=TailSampler(),
        )
        self.metrics = Metrics()
        # the real engine, for `handle`; it shares the worker pool
        self.service = LayoutService(
            cache_dir=os.path.join(workdir, "handle-cache"),
            pool=self.pool,
            request_timeout=SERVER_REQUEST_TIMEOUT_S,
            telemetry=ServiceTelemetry(
                events_dir=os.path.join(workdir, "handle-telemetry"),
                sampler=TailSampler(),
            ),
        )
        self.service.admission = admission(self.pool, self.service.cache)

    def close(self) -> None:
        self.service.close()  # shuts the shared pool down too
        self.telemetry.close()

    def walk(self, line: bytes, rec) -> bytes:
        from repro.obs import tracing
        from repro.service import LayoutRequest, LayoutResponse, StageKeys
        from repro.service.protocol import StageTiming
        from repro.tool.assistant import (
            AssistantResult,
            stage_alignment,
            stage_distribution,
            stage_estimation,
            stage_frontend,
            stage_partition,
            stage_selection,
        )

        start = perf_counter()
        timings: List[Any] = []
        with rec.span("op"):
            with rec.span("protocol.decode"):
                request = LayoutRequest.from_dict(json.loads(line))
            with rec.span("admission"):
                ticket = self.admission.try_acquire(
                    SERVER_REQUEST_TIMEOUT_S * 0.8
                )
            tracer = tracing.Tracer(name="request", detail=False)
            with tracing.activate(tracer), tracing.span("request"):
                with rec.span("service.resolve"):
                    source = request.resolve_source()
                    config = request.resolve_config()
                with rec.span("cache.key"):
                    keys = StageKeys(source, config)

                def stage(name: str, compute):
                    begin = perf_counter()
                    with rec.span("cache.key"):
                        key = keys.key_for(name)
                    with rec.span("cache.load"):
                        hit, value = self.cache.load(name, key)
                    if not hit:
                        with rec.span("stage." + name):
                            value = compute()
                        with rec.span("cache.store"):
                            self.cache.store(name, key, value)
                    seconds = perf_counter() - begin
                    with rec.span("metrics.observe"):
                        self.metrics.observe_stage(name, seconds)
                        self.metrics.record_cache(name, hit)
                    timings.append(StageTiming(name, seconds, hit))
                    return value

                program, symbols = stage(
                    "frontend", lambda: stage_frontend(source)
                )
                with rec.span("cache.key"):
                    keys.bind_program(program)
                partition, pcfg, template = stage(
                    "partition",
                    lambda: stage_partition(program, symbols, config),
                )
                alignment_spaces = stage(
                    "alignment",
                    lambda: stage_alignment(
                        partition, pcfg, symbols, template, config
                    ),
                )
                layout_spaces = stage(
                    "distribution",
                    lambda: stage_distribution(
                        partition, alignment_spaces, template, symbols,
                        config,
                    ),
                )
                estimates, db = stage(
                    "estimation",
                    lambda: stage_estimation(
                        partition, layout_spaces, symbols, config,
                        job_runner=self.pool.run_jobs,
                    ),
                )
                graph, selection = stage(
                    "selection",
                    lambda: stage_selection(
                        partition, pcfg, estimates, symbols, db, config
                    ),
                )
            result = AssistantResult(
                config=config, program=program, symbols=symbols,
                partition=partition, pcfg=pcfg, template=template,
                alignment_spaces=alignment_spaces,
                layout_spaces=layout_spaces, estimates=estimates,
                graph=graph, selection=selection, db=db,
            )
            seconds = perf_counter() - start
            with rec.span("admission"):
                self.admission.release(ticket, seconds, ok=True)
            with rec.span("metrics.observe"):
                self.metrics.inc("requests_total")
                self.metrics.inc("requests_ok")
                self.metrics.observe_stage("request", seconds)
                self.metrics.observe_op("analyze", seconds, ok=True)
                for name, spans in tracer.durations_by_name().items():
                    for value in spans:
                        self.metrics.observe_span(name, value)
            with rec.span("telemetry.record"):
                self.telemetry.record_request(
                    "analyze", seconds, ok=True, tracer=tracer
                )
            with rec.span("protocol.encode"):
                response = LayoutResponse.from_result(result, timings)
                body = json.dumps(response.to_dict()).encode() + b"\n"
        return body

    def handle(self, line: bytes) -> bytes:
        """What the TCP handler does with one request line."""
        reply = self.service.handle(json.loads(line))
        return json.dumps(reply).encode() + b"\n"


def _layer_rows(rec) -> List[Dict[str, float]]:
    """Per walked op: self time of every span name under it."""
    rows: List[Dict[str, float]] = []
    for span in rec.spans:
        if span.name == "op":
            rows.append({"op": span.duration_s, "glue": 0.0})
        name = "glue" if span.name == "op" else span.name
        rows[-1][name] = rows[-1].get(name, 0.0) + span.self_s
    return rows


def _walk_all(walker: Walker, timeline: Timeline, recorders: List[Any]
              ) -> Tuple[Dict[str, float], List[Tuple]]:
    """Walk and ``handle`` the four programs cold, from memory and
    from disk.  Returns the layer metrics and (key, answer) pairs to
    verify; every duration is scaled by the machine-speed factor of
    its moment, from kernel samples taken between the ops."""
    from repro.service import LayoutRequest
    from repro.tool.assistant import run_assistant, stage_estimation
    from spans import SpanRecorder

    answers: List[Tuple[str, Optional[expected.Answer]]] = []
    # (what was timed, program) -> one record per repetition: the moment
    # ("at") and the durations measured then, by name
    records: Dict[Tuple[str, str], List[Dict[str, float]]] = {}
    reply_bytes: List[int] = []

    def timed(what: str, program: str, call, **extra: float):
        begin = perf_counter()
        value = call()
        seconds = perf_counter() - begin
        records.setdefault((what, program), []).append(
            {"at": begin + seconds / 2, "seconds": seconds, **extra}
        )
        timeline.sample_if_due()
        return value

    def request_line(op) -> bytes:
        return json.dumps(op.payload).encode() + b"\n"

    def walked(mode: str, program: str, op, enabled: bool = True) -> None:
        rec = SpanRecorder(enabled=enabled)
        body = timed("walk-" + mode, program,
                     lambda: walker.walk(request_line(op), rec))
        if enabled:
            records["walk-" + mode, program][-1].update(_layer_rows(rec)[0])
            recorders.append(rec)
        reply_bytes.append(len(body))
        answers.append((op.key, expected.answer_of_reply(json.loads(body))))

    def handled(mode: str, program: str, op) -> None:
        body = timed("handle-" + mode, program,
                     lambda: walker.handle(request_line(op)))
        answers.append((op.key, expected.answer_of_reply(json.loads(body))))

    for program in inputs.PAPER_PROGRAMS:
        fresh = [
            inputs.service_op("cold", program, size, inputs.HOT_PROCS)
            for size in inputs.fresh_sizes(program)[:3 * WALK_COLD]
        ]
        for i in range(WALK_COLD):
            # the same work three ways, one after the other: through
            # the walk, through `handle`, and as a plain library call
            walked("cold", program, fresh[3 * i])
            handled("cold", program, fresh[3 * i + 1])
            request = LayoutRequest.from_dict(fresh[3 * i + 2].payload)
            source, config = (request.resolve_source(),
                              request.resolve_config())
            result = timed("plain", program,
                           lambda: run_assistant(source, config))
            # pooled estimation against serial, on the same inputs
            for _ in range(2):
                begin = perf_counter()
                stage_estimation(result.partition, result.layout_spaces,
                                 result.symbols, config,
                                 job_runner=walker.pool.run_jobs)
                pooled = perf_counter() - begin
                timed("estimation", program, lambda: stage_estimation(
                    result.partition, result.layout_spaces, result.symbols,
                    config,
                ), pooled=pooled)
        last_walked, last_handled = fresh[-3], fresh[-2]
        for _ in range(WALK_MEM):
            walked("mem", program, last_walked)
            walked("mem-untraced", program, last_walked, enabled=False)
            handled("mem", program, last_handled)
        for _ in range(WALK_DISK):
            walker.cache.clear_memory()
            walked("disk", program, last_walked)
            walker.service.cache.clear_memory()
            handled("disk", program, last_handled)

    def typical(what: str, name: str = "seconds") -> float:
        """One duration of one kind of record, scaled: the median within
        each program, the mean over the programs."""
        return mean([
            median(
                record.get(name, 0.0) * timeline.factor(record["at"])
                for record in records[what, program]
            )
            for program in inputs.PAPER_PROGRAMS
        ])

    entry_sizes = [
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(walker.cache.root)
        for name in names if name.endswith(".pkl")
    ]
    walk_mem = typical("walk-mem", "op")
    untraced = typical("walk-mem-untraced")
    metrics = {
        "protocol.reply_bytes": mean(reply_bytes),
        "cache.entry_bytes": mean(entry_sizes),
        "cache.load_mem.busy_us": typical("walk-mem", "cache.load") * 1e6,
        "cache.load_disk.busy_ms": typical("walk-disk", "cache.load") * 1e3,
        "cache.store.busy_ms": typical("walk-cold", "cache.store") * 1e3,
        "pool.dispatch.overhead_ms":
            (typical("estimation", "pooled") - typical("estimation")) * 1e3,
        "service.walk.warm_mem_ms": walk_mem * 1e3,
        "service.handle.cold_ms": typical("handle-cold") * 1e3,
        "service.handle.warm_mem_ms": typical("handle-mem") * 1e3,
        "service.handle.warm_disk_ms": typical("handle-disk") * 1e3,
        "service.overhead_cold_ms":
            (typical("handle-cold") - typical("plain")) * 1e3,
        "service.unattributed_ms": (typical("handle-mem") - walk_mem) * 1e3,
        "trace.overhead_share":
            (typical("walk-mem") - untraced) / untraced,
    }
    # the layers of the path every request takes, from memory
    for layer in ("protocol.decode", "protocol.encode", "service.resolve",
                  "admission", "cache.key", "telemetry.record",
                  "metrics.observe"):
        metrics[f"{layer}.busy_us"] = typical("walk-mem", layer) * 1e6
    return metrics, answers


def run_traced(workload: str, seed: int, seconds: float, clock: SetupClock,
               timeline: Timeline, out: Optional[str]) -> Dict[str, Any]:
    """The traced run: what the clients and the server's own replies
    and `stats` say about the layers, then the in-process walk."""
    client_s = seconds * CLIENT_SHARE
    calibrator = CalibratorProcess()
    try:
        setup_begin = perf_counter()
        with Server() as server:
            plan, digest = set_up(server, workload, seed, client_s, clock)
            setup_end = perf_counter()
            before = _stats(server)
            samples, wall_s = _drive(server, workload, plan, client_s)
            after = _stats(server)
            ping_us = _ping_us(server)
            drive_end = perf_counter()
    finally:
        machine = calibrator.stop()
    # one machine-speed factor for everything the clients measured
    scale = machine.floor_factor(setup_end, drive_end)
    setup_scale = machine.floor_factor(setup_begin, setup_end)
    failed, wrong, reasons = expected.verify(
        samples, inputs.OP_LIMIT_S[workload]
    )

    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="walk-", dir=TMP_ROOT)
    walker = Walker(workdir)
    recorders: List[Any] = []
    try:
        metrics, walked_answers = _walk_all(walker, timeline, recorders)
    finally:
        walker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if out:
        for index, rec in enumerate(recorders):
            rec.write(out, append=index > 0)
    answers = expected.load()
    for key, answer in walked_answers:
        if not expected.matches(answers, key, answer):
            wrong += 1
            failed += 1
            reasons.append(f"walk {key}: wrong answer {answer}")

    def delta(path: Tuple[str, ...]) -> float:
        def dig(tree):
            for part in path:
                tree = tree.get(part, 0) if isinstance(tree, dict) else 0
            return tree or 0
        return dig(after) - dig(before)

    ops = len(samples)
    answered = [s for s in samples if s.lookups]
    not_dup = [s for s in answered if s.op.cls != "dup"]
    metrics["cache.hit_share"] = (
        sum(s.hits for s in not_dup) / sum(s.lookups for s in not_dup)
    )
    for stage in ("frontend", "partition", "alignment", "distribution",
                  "estimation", "selection"):
        metrics[f"server.stage.{stage}.busy_ms"] = mean(
            [s.stage_s.get(stage, 0.0) for s in answered]
        ) * 1e3 * scale
    # half the ops of the closed loop spend this little in the stages:
    # the means above are carried by the quarter that loads from disk
    metrics["server.stage_sum.p50_ms"] = percentile(
        [sum(s.stage_s.values()) * 1e3 for s in answered], 50
    ) * scale
    metrics["client.outside_stages_ms"] = mean(
        [s.seconds - sum(s.stage_s.values()) for s in answered]
    ) * 1e3 * scale
    metrics["client.latency_p99_ms"] = percentile(
        [s.seconds * 1e3 for s in samples], 99
    ) * scale
    for cls in ("warm", "grid", "cold", "prefix", "dup"):
        of_class = [s.seconds * 1e3 for s in samples if s.op.cls == cls]
        metrics[f"client.{cls}.p50_ms"] = percentile(of_class, 50) * scale
    metrics["loadgen.late_share"] = (
        sum(1 for s in samples if s.lag_s > LATE_S) / ops
    )
    metrics["loadgen.max_lag_ms"] = max(s.lag_s for s in samples) * 1e3
    metrics["admission.shed"] = delta(("admission", "shed_total"))
    metrics["admission.waited"] = delta(
        ("admission", "counters", "admitted_after_wait")
    )
    metrics["admission.brownout"] = delta(
        ("admission", "counters", "brownout_admitted")
    )
    metrics["server.timeouts"] = delta(("counters", "requests_timeout"))
    metrics["server.zombies"] = delta(("counters", "zombie_workers_total"))
    metrics["server.degraded"] = delta(("counters", "requests_degraded"))
    metrics["pool.degradations"] = after["pool"]["degradations"]
    metrics["telemetry.events_per_op"] = delta(
        ("telemetry", "events", "events_total")
    ) / ops
    metrics["tcp.roundtrip.busy_us"] = ping_us * scale
    for segment in ("import", "server_ready", "prime"):
        metrics[f"setup.{segment}_s"] = (
            clock.segments.get(segment, 0.0) * setup_scale
        )
    metrics["machine.scale"] = scale
    metrics["verify.wrong_ops"] = wrong
    return {
        "digest": digest,
        "attempted": ops + len(walked_answers),
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons[:5],
        "metrics": metrics,
        "notes": {
            "client_ops": ops,
            "client_wall_s": round(wall_s, 3),
            "walked_ops": len(walked_answers),
            "client_p50_ms": percentile(
                [s.seconds * 1e3 for s in samples], 50
            ) * scale,
            "calibrator_samples": len(machine.times),
        },
    }
