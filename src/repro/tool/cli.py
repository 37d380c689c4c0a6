"""Command-line interface of the data layout assistant.

Usage examples::

    autolayout analyze --program adi --size 256 --procs 16
    autolayout analyze --file mycode.f --procs 8 --show-spaces
    autolayout compare --program erlebacher --size 64 --procs 16
    autolayout summary --programs adi shallow --quick
    autolayout analyze --program adi --procs 16 --trace trace.json
    autolayout explain --program adi --size 256 --procs 16
    autolayout stats --program adi --procs 16 --prometheus
    autolayout serve --port 7861 --cache-dir ~/.autolayout-cache
    autolayout request --program adi --size 256 --procs 16
    autolayout service stats
    autolayout service metrics
    repro fuzz --cases 200 --seed 0
    repro fuzz --budget 60s --out /tmp/fuzz-failures
    repro bench run --label baseline
    repro bench gate --baseline baseline
    repro bench profile --bench stage:alignment_ilp/adi

``analyze`` runs the four framework steps and prints the selected layout
(``--trace``/``--trace-chrome`` record the run's span trace); ``explain``
reconstructs *why* each array got its layout from the recorded trace;
``stats`` runs one analysis in-process and prints the observability
snapshot (``--prometheus`` for text exposition); ``compare`` also
measures every promising scheme on the simulated machine; ``summary``
reproduces the paper's aggregate statistics over the test-case grids;
``serve`` starts the long-lived layout service and ``request`` /
``service`` talk to it over its JSON protocol; ``fuzz`` runs the
differential-oracle fuzzer; ``bench`` drives the deterministic
benchmark harness and regression gate over ``BENCH_<label>.json``
baselines (``repro`` is an alias of this entry point).

Every analysing command states its input as one service ``LayoutRequest``:
a bad flag value is the service's error, logged once, and exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, Dict, List, Optional

from ..ilp import BACKENDS
from ..machine.params import MACHINES
from ..obs.log import LOG_LEVELS, configure_logging, get_logger
from ..programs.registry import PROGRAMS
from .assistant import AssistantConfig, run_assistant
from .report import (
    format_schemes,
    format_search_spaces,
    format_selection,
    format_summary,
    format_test_case,
)
from .schemes import enumerate_schemes, measure_scheme
from .testcases import grid_for, run_test_case, summarize

logger = get_logger("repro.cli")


def _add_solver(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", choices=sorted(MACHINES),
                        default="ipsc860")
    parser.add_argument("--backend", choices=tuple(BACKENDS),
                        default="scipy", help="0-1 solver backend")


def _add_trace(parser: argparse.ArgumentParser, what: str,
               chrome: bool = False) -> None:
    parser.add_argument("--trace", help=f"record {what}'s span trace to "
                                        "this JSON file")
    if chrome:
        parser.add_argument("--trace-chrome",
                            help="also export a chrome://tracing file")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--program", choices=sorted(PROGRAMS),
                        default="adi", help="bundled benchmark program")
    parser.add_argument("--file", help="Fortran source file instead")
    parser.add_argument("--size", type=int, help="problem size n")
    parser.add_argument("--dtype", choices=["real", "double"])
    parser.add_argument("--maxiter", type=int, default=3,
                        help="time-loop iterations for iterative programs")
    parser.add_argument("--procs", type=int, default=16,
                        help="number of processors")
    _add_solver(parser)


def _request(args: argparse.Namespace, **fields: Any):
    """The analysis ``_add_common``'s flags describe, as the service's
    ``LayoutRequest`` (``fields`` adds request fields).  Raises
    ``RequestValidationError`` for a value the service would refuse and
    for an unreadable ``--file``."""
    from ..service.protocol import LayoutRequest, RequestValidationError

    source = None
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, ValueError) as exc:
            raise RequestValidationError(
                f"cannot read --file {args.file!r}: {exc}"
            ) from None
    return LayoutRequest.from_dict({
        "program": None if args.file else args.program,
        "source": source,
        "size": args.size,
        "dtype": args.dtype,
        "maxiter": args.maxiter,
        "procs": args.procs,
        "machine": args.machine,
        "backend": args.backend,
        **fields,
    })


def _analysis(args: argparse.Namespace):
    """``(source, config)`` of the analysis the common flags describe."""
    request = _request(args)
    return request.resolve_source(), request.resolve_config()


@contextlib.contextmanager
def _traced(name: str, trace_path: Optional[str] = None,
            chrome_path: Optional[str] = None, keep: bool = False):
    """Run the block under a span trace called ``name`` when a trace
    file is asked for or ``keep`` is set; with neither, no tracer starts
    (results are bitwise-identical either way).  Yields a dict that
    holds the finished trace under ``"trace"`` once the block is done;
    the files are written only when the block exits normally."""
    kept: Dict[str, Any] = {}
    if not (trace_path or chrome_path or keep):
        yield kept
        return
    from ..obs import tracing

    tracing.start_trace(name)
    try:
        yield kept
    finally:
        kept["trace"] = tracing.finish_trace()
    if trace_path:
        from ..obs.events import write_trace

        write_trace(kept["trace"], trace_path)
        logger.info("wrote trace to %s", trace_path)
    if chrome_path:
        from ..obs.chrome import write_chrome_trace

        write_chrome_trace(kept["trace"], chrome_path)
        logger.info("wrote Chrome trace to %s", chrome_path)


def _send(args: argparse.Namespace, payload: Dict[str, Any],
          policy=None) -> Optional[Dict[str, Any]]:
    """The reply of the service at ``--host``/``--port`` to ``payload``
    (retrying typed overload rejections under ``policy``), or ``None``
    after logging that the service could not be reached or gave no
    JSON reply."""
    from ..service import (
        ServiceError,
        send_request,
        send_request_with_retries,
    )

    endpoint = {"host": args.host, "port": args.port,
                "timeout": args.timeout}
    try:
        if policy is None:
            return send_request(payload, **endpoint)
        return send_request_with_retries(payload, policy=policy, **endpoint)
    except (OSError, ServiceError, ValueError) as exc:  # ValueError: not JSON
        logger.error(
            "cannot reach layout service at %s:%s (%s); "
            "start one with: autolayout serve",
            args.host, args.port, exc,
        )
        return None


def _objectives(path: str, check=None):
    """The objectives in the file at ``path``, passed through ``check``
    when given, or ``None`` after logging why the file is bad."""
    from ..obs.slo import SLOValidationError, load_objectives

    try:
        objectives = load_objectives(path)
        if check is not None:
            check(objectives)
    except SLOValidationError as exc:
        logger.error("bad objectives file: %s", exc)
        return None
    return objectives


def cmd_analyze(args: argparse.Namespace) -> int:
    source, config = _analysis(args)
    with _traced("analyze", args.trace, args.trace_chrome):
        result = run_assistant(source, config)
    if args.show_spaces:
        print(format_search_spaces(result))
        print()
    print(format_selection(result))
    from .memory import memory_footprint

    report = memory_footprint(result.symbols, result.selected_layouts)
    print(f"per-node memory: {report}")
    if args.dot_dir:
        import os

        from .graphviz import export_dot

        os.makedirs(args.dot_dir, exist_ok=True)
        for name, text in export_dot(result).items():
            path = os.path.join(args.dot_dir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {path}")
    return 0


def cmd_hpf(args: argparse.Namespace) -> int:
    from .hpf_writer import write_hpf

    text = write_hpf(run_assistant(*_analysis(args)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Run a traced analysis and report why each array got its layout."""
    import json

    from ..obs.provenance import build_provenance, format_provenance

    source, config = _analysis(args)
    with _traced("explain", args.trace, keep=True) as kept:
        run_assistant(source, config)
    report = build_provenance(kept["trace"])
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_provenance(report))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """One-shot observability snapshot: run a single analysis through an
    in-process service and print its metrics registry."""
    import json

    from ..service import LayoutService
    from .top import format_top

    request = _request(args)
    with LayoutService(use_cache=False) as service:
        response = service.analyze(request)
        if not response.ok:
            logger.error("analysis failed: %s", response.error)
            return 1
        if args.prometheus:
            print(service.prometheus(), end="")
        elif args.json:
            print(json.dumps(service.stats(), indent=2, sort_keys=True))
        else:
            print(format_top(service.stats()))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    source, config = _analysis(args)
    result = run_assistant(source, config)
    schemes = enumerate_schemes(result)
    for scheme in schemes:
        measure_scheme(scheme, result, source)
    print(format_schemes(schemes))
    return 0


#: interpreter switch interval of a ``repro serve`` process.  Misses are
#: computed on request threads, and at CPython's default 5 ms every GIL
#: hand-off to a thread that only has to accept, decode or shed waits
#: behind each running compute: offered twice its capacity the server
#: then queues connections for seconds in front of admission where it
#: should shed them within milliseconds.
SERVE_SWITCH_INTERVAL_S = 0.0005


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from ..resilience.admission import (
        AdaptiveConcurrencyLimiter,
        AdmissionController,
    )
    from ..resilience.breaker import Backoff
    from ..service import (
        LayoutServer,
        LayoutService,
        ServiceTelemetry,
        TailSampler,
        WorkerPool,
        check_objective_ops,
    )

    objectives = None
    if args.slo_file:
        objectives = _objectives(args.slo_file, check_objective_ops)
        if objectives is None:
            return 2
    telemetry = ServiceTelemetry(
        events_dir=args.telemetry_dir,
        sampler=TailSampler(
            slow_s=args.slow_trace_ms / 1e3,
            sample_every=args.trace_sample_every,
        ),
    )
    pool = WorkerPool(kind=args.pool, max_workers=args.workers,
                      job_timeout=args.job_timeout,
                      retries=args.retries,
                      backoff=Backoff(base_s=args.retry_backoff))
    max_limit = args.admission_max_concurrency
    initial = args.admission_initial_concurrency
    initial = min(initial if initial is not None else 8, max_limit)
    try:
        admission = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(
                initial_limit=initial, max_limit=max_limit,
            ),
            max_queue=args.admission_max_queue,
            max_queue_wait_s=args.admission_queue_wait,
            breakers=[pool.breaker],
        )
    except ValueError as exc:
        logger.error("bad admission settings: %s", exc)
        return 2
    service = LayoutService(
        cache_dir=args.cache_dir,
        pool=pool,
        request_timeout=args.request_timeout,
        use_cache=not args.no_cache,
        telemetry=telemetry,
        objectives=objectives,
        admission=admission,
        brownout_budget_s=args.brownout_budget,
    )
    # the cache (and its breaker) only exist once the service does
    admission.breakers.append(service.cache.breaker)
    server = LayoutServer((args.host, args.port), service,
                          conn_timeout_s=args.conn_timeout)

    def _drain_and_stop(signum, frame):  # pragma: no cover - signal path
        logger.info(
            "SIGTERM: draining (deadline %ss) before shutdown",
            args.drain_deadline,
        )
        threading.Thread(
            target=server.graceful_shutdown,
            args=(args.drain_deadline,),
            daemon=True,
        ).start()

    try:
        signal.signal(signal.SIGTERM, _drain_and_stop)
    except ValueError:  # not the main thread (embedded use)
        pass
    logger.info(
        "layout service listening on %s:%s (pool: %s, cache: %s, "
        "events: %s, objectives: %d, concurrency: %d..%d, queue: %d)",
        args.host, server.port, service.pool.active_kind,
        args.cache_dir or "memory-only",
        args.telemetry_dir or "memory-only",
        len(objectives or []),
        initial, max_limit, args.admission_max_queue,
    )
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(SERVE_SWITCH_INTERVAL_S)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        sys.setswitchinterval(switch_interval)
        server.server_close()
        service.close()
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    import json

    from .report import format_service_response

    payload = _request(
        args, use_cache=not args.no_cache, deadline_s=args.deadline
    ).to_dict()
    policy = None
    if args.retries:
        from ..service import RetryPolicy

        policy = RetryPolicy(max_attempts=args.retries + 1)
    resp = _send(args, payload, policy)
    if resp is None:
        return 1
    if args.json:
        print(json.dumps(resp, indent=2, sort_keys=True))
    else:
        print(format_service_response(resp))
    return 0 if resp.get("ok") else 1


def cmd_service(args: argparse.Namespace) -> int:
    import json

    from .top import format_top

    payload = {"op": args.action}
    if args.action == "shutdown" and args.drain_deadline is not None:
        payload["drain_deadline_s"] = args.drain_deadline
    resp = _send(args, payload)
    if resp is None:
        return 1
    if not resp.get("ok"):
        logger.error("service %s failed: %s",
                     args.action, resp.get("error"))
        return 1
    if args.action == "stats":
        if args.json:
            print(json.dumps(resp["stats"], indent=2, sort_keys=True))
        else:
            print(format_top(resp["stats"]))
    elif args.action == "metrics":
        print(resp["text"], end="")
    else:
        print(json.dumps(resp))
    if args.action == "ready" and not resp.get("ready"):
        return 3  # distinguishable "up but not ready" for orchestrators
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate declared objectives against a live service or a
    recorded event log.  ``check`` exits 1 on violation, 2 on input
    error or an unreachable service; ``report`` only fails (2) on
    those."""
    import json
    import os

    from ..obs.slo import (
        SLOReport,
        SLOValidationError,
        evaluate_objectives,
        format_slo_report,
        window_from_events,
    )

    objectives = _objectives(args.objectives)
    if objectives is None:
        return 2

    if args.events:
        from ..obs.telemetry import read_event_log

        if not os.path.exists(args.events):
            logger.error("no event log at %r", args.events)
            return 2
        events, bad = read_event_log(args.events)
        if bad:
            logger.warning("skipped %d unreadable event-log lines", bad)
        windows = window_from_events(events, window_s=args.window)
        report = evaluate_objectives(
            objectives, windows, require_data=args.require_data
        )
    else:
        resp = _send(args, {
            "op": "slo",
            "objectives": [o.to_dict() for o in objectives],
            "require_data": args.require_data,
        })
        if resp is None:
            return 2
        if not resp.get("ok"):
            logger.error("slo evaluation failed: %s", resp.get("error"))
            return 2
        try:
            report = SLOReport.from_dict(resp.get("report", {}))
        except SLOValidationError as exc:
            logger.error("unreadable slo report from service: %s", exc)
            return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_slo_report(report))
    if args.action == "check" and not report.ok:
        return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over the service's windowed stats (``--once``
    prints a single page, for CI logs and tests)."""
    import time as _time

    from .top import CLEAR, format_top

    objectives = None
    if args.objectives:
        objectives = _objectives(args.objectives)
        if objectives is None:
            return 2

    def one_page() -> Optional[str]:
        resp = _send(args, {"op": "stats"})
        if resp is None:
            return None
        if not resp.get("ok"):
            logger.error("service stats failed: %s", resp.get("error"))
            return None
        slo_report = None
        if objectives is not None:
            slo_resp = _send(args, {
                "op": "slo",
                "objectives": [o.to_dict() for o in objectives],
            })
            if slo_resp is None:
                return None
            if slo_resp.get("ok"):
                slo_report = slo_resp.get("report")
        return format_top(resp["stats"], slo_report)

    try:
        while True:
            page = one_page()
            if page is None:
                return 1
            if args.once:
                print(page)
                return 0
            print(CLEAR + page, flush=True)  # pragma: no cover
            _time.sleep(args.interval)  # pragma: no cover
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _parse_budget(text: str) -> float:
    """Parse a wall-clock budget like ``60s``, ``2m`` or plain seconds."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        text, factor = text[:-1], 60.0
    try:
        value = float(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad budget {text!r}: expected e.g. 60s, 2m or 90"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a differential-oracle fuzz campaign (see ``repro.qa``)."""
    from ..qa import ALL_CHECKS, GeneratorConfig, run_fuzz

    config = GeneratorConfig(
        max_arrays=args.max_arrays,
        max_rank=args.max_rank,
        max_phases=args.max_phases,
        size=args.size or 8,
    )
    if args.oracle_scope:
        config = config.small()
    checks = args.checks or None
    unknown = sorted(set(checks or ()) - set(ALL_CHECKS))
    if unknown:
        logger.error("unknown checks: %s (known: %s)",
                     ", ".join(unknown), ", ".join(ALL_CHECKS))
        return 2

    def progress(case_seed: int, report) -> None:
        if report.cases_run and report.cases_run % 50 == 0:
            logger.info("fuzz: %d cases, %d failures",
                        report.cases_run, len(report.failures))

    with _traced("fuzz", args.trace):
        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            budget_seconds=args.budget,
            config=config,
            assistant_config=AssistantConfig.from_dict({
                "nprocs": args.procs, "machine": args.machine,
                "ilp_backend": args.backend,
            }),
            checks=checks,
            minimize=not args.no_minimize,
            out_dir=args.out,
            progress=progress,
        )
    print(report.summary())
    if report.failures and args.out:
        print(f"repro cases written to {args.out}")
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay seeded fault plans over the paper programs and assert the
    resilience invariant (see ``repro.resilience.chaos``)."""
    import json

    from ..resilience import chaos

    programs = args.programs or list(chaos.DEFAULT_PROGRAMS)
    unknown = sorted(set(programs) - set(chaos.DEFAULT_PROGRAMS))
    if unknown:
        logger.error("unknown programs: %s (known: %s)",
                     ", ".join(unknown),
                     ", ".join(chaos.DEFAULT_PROGRAMS))
        return 2

    def progress(case) -> None:
        if (case.index + 1) % 20 == 0:
            logger.info("chaos: %d cases run", case.index + 1)

    report = chaos.run_chaos(
        cases=args.cases,
        seed=args.seed,
        programs=programs,
        budget_s=args.budget,
        case_timeout_s=args.case_timeout,
        procs=args.procs,
        artifact_dir=args.artifacts,
        progress=progress,
        events_dir=args.events,
        overload_fraction=args.overload_fraction,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    if not report.ok and args.artifacts:
        print(f"fault-plan artifacts written to {args.artifacts}")
    return 0 if report.ok else 1


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Open-loop load generation against a running service; gates like
    ``repro bench gate`` (see ``repro.service.loadtest``)."""
    import json

    from ..service.loadtest import (
        LoadtestConfig,
        LoadtestReport,
        run_loadtest,
    )

    profile_data = {}
    if args.profile:
        try:
            with open(args.profile, "r", encoding="utf-8") as handle:
                profile_data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            logger.error("bad loadtest profile %r: %s", args.profile, exc)
            return 2

    request = dict(profile_data.get("request", {}))
    if args.program:
        request["program"] = args.program
    if args.size is not None:
        request["size"] = args.size
    if args.procs is not None:
        request["procs"] = args.procs
    if args.deadline is not None:
        request["deadline_s"] = args.deadline
    if args.no_cache:
        request["use_cache"] = False
    request.setdefault("program", "adi")
    request.setdefault("procs", 4)

    try:
        config = LoadtestConfig.from_profile(
            profile_data,
            rate=args.rate,
            duration_s=args.duration,
            timeout_s=args.request_timeout,
            workers=args.workers,
            request=request,
        )
    except ValueError as exc:
        logger.error("bad loadtest configuration: %s", exc)
        return 2

    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = LoadtestReport.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError,
                json.JSONDecodeError) as exc:
            logger.error("bad baseline report %r: %s", args.baseline, exc)
            return 2

    p99_budget = args.p99_budget
    if args.slo:
        objectives = _objectives(args.slo)
        if objectives is None:
            return 2
        for objective in objectives:
            if (objective.op == "analyze" and objective.metric == "p99"
                    and objective.threshold_s is not None):
                p99_budget = objective.threshold_s
                break
        else:
            logger.error(
                "no analyze p99 objective in %r to gate on", args.slo
            )
            return 2

    try:
        report = run_loadtest(
            config, host=args.host, port=args.port,
            progress=lambda msg: logger.info("loadtest: %s", msg),
        )
    except RuntimeError as exc:
        logger.error("%s", exc)
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("loadtest report written to %s", args.out)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())

    problems = report.gate(
        p99_budget_s=p99_budget,
        baseline=baseline,
        min_goodput_ratio=args.min_goodput_ratio,
        require_shed=args.require_shed,
    )
    if args.gate or args.require_shed or baseline is not None \
            or p99_budget is not None:
        for problem in problems:
            logger.error("loadtest gate: %s", problem)
        return 1 if problems else 0
    # even ungated, invariant violations (wrong/untyped/no-reply) fail
    for violation in report.violations:
        logger.error("loadtest: %s", violation)
    return 1 if report.violations else 0


def _bench_suite(args: argparse.Namespace):
    """The benchmark cases the bench flags select."""
    from ..perf import bench as perfbench

    return perfbench.build_suite(
        programs=args.programs or None,
        config=perfbench.default_bench_config(
            machine=MACHINES[args.machine], backend=args.backend
        ),
        stages=args.stages or None,
        include_e2e=not args.no_e2e,
        include_qa=not args.no_qa,
    )


def _bench_run_suite(args: argparse.Namespace):
    """Build and run the suite as the bench flags request, traced when
    asked to; returns ``{bench_id: Measurement}``."""
    from ..perf import bench as perfbench

    def progress(case, m) -> None:
        logger.info("bench %-32s min %.2fms (mad %.3fms)",
                    case.bench_id, m.min_s * 1e3, m.mad_s * 1e3)

    with _traced("bench", args.trace, args.trace_chrome):
        return perfbench.run_suite(
            _bench_suite(args), repeats=args.repeats, warmup=args.warmup,
            memory=not args.no_memory, progress=progress,
        )


def cmd_bench_run(args: argparse.Namespace) -> int:
    import json

    from ..perf import bench as perfbench

    results = _bench_run_suite(args)
    meta = perfbench.run_meta(
        args.repeats, args.warmup,
        programs=args.programs or sorted(perfbench.BENCH_SIZES),
    )
    path = None
    if not args.no_write:
        path = perfbench.append_run(
            results, args.label, root=args.root, meta=meta
        )
        logger.info("appended run to %s", path)
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(perfbench.render_bench_prometheus(results))
        logger.info("wrote Prometheus exposition to %s", args.prometheus)
    if args.json:
        record = perfbench.new_run(results, meta=meta)
        record["bench_file"] = path
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(perfbench.format_run(results))
        if path:
            print(f"baseline trajectory: {path}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """``bench compare`` and ``bench gate``: a run (or ``--current``)
    against a stored baseline; ``gate`` exits 1 on a significant
    regression.  A missing, unreadable, corrupt or off-schema input file
    is one typed diagnostic and exit code 2, not a traceback."""
    import json
    import os

    from ..perf import bench as perfbench

    base_path = args.baseline
    if os.path.sep not in base_path and not os.path.exists(base_path):
        base_path = perfbench.bench_path(base_path, args.root)
    try:
        base = perfbench.load_latest_results(base_path, role="baseline")
        if args.current:
            current = perfbench.load_latest_results(
                args.current, role="current"
            )
        else:
            current = _bench_run_suite(args)
    except perfbench.BenchInputError as exc:
        logger.error("%s", exc)
        if args.json:
            print(json.dumps({
                "error": {"kind": f"bench-input/{exc.kind}",
                          "path": exc.path, "detail": exc.detail},
            }, indent=2, sort_keys=True))
        return 2
    thresholds = perfbench.Thresholds(
        max_ratio=args.max_ratio,
        mad_sigmas=args.mad_sigmas,
        min_slowdown_s=args.min_slowdown,
        per_bench=perfbench.parse_threshold_overrides(
            args.threshold or []
        ),
    )
    report = perfbench.compare_results(base, current, thresholds)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(perfbench.format_compare(report))
    if args.bench_command == "gate" and not report.ok:
        logger.error("bench gate failed: %d regression(s)",
                     len(report.regressions))
        return 1
    return 0


def cmd_bench_profile(args: argparse.Namespace) -> int:
    import json

    from ..perf import bench as perfbench

    with _traced("bench", args.trace, args.trace_chrome):
        cases = _bench_suite(args)
        wanted = args.bench or []
        if wanted:
            cases = [
                c for c in cases
                if any(pat in c.bench_id for pat in wanted)
            ]
            if not cases:
                logger.error("no benchmarks match %s", wanted)
                return 2
        profiles = [
            perfbench.profile_call(c.bench_id, c.fn, limit=args.limit)
            for c in cases
        ]
    if args.json:
        print(json.dumps([p.to_dict() for p in profiles], indent=2,
                         sort_keys=True))
    else:
        print("\n\n".join(
            perfbench.format_profile(p) for p in profiles
        ))
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    programs = args.programs or sorted(PROGRAMS)
    results = []
    for name in programs:
        cases = grid_for(PROGRAMS[name])
        if args.quick:
            cases = cases[:: max(len(cases) // 4, 1)]
        for case in cases:
            result = run_test_case(case, machine=MACHINES[args.machine])
            results.append(result)
            if args.verbose:
                print(format_test_case(result))
                print()
    print(format_summary(summarize(results)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="autolayout",
        description="Automatic data layout assistant for HPF-like programs "
                    "(Kennedy & Kremer, SC'95 reproduction)",
    )
    parser.add_argument("--log-level", choices=list(LOG_LEVELS),
                        default="info",
                        help="stderr logging verbosity (default: info)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="select a data layout")
    _add_common(p_analyze)
    p_analyze.add_argument("--show-spaces", action="store_true",
                           help="print the candidate search spaces")
    p_analyze.add_argument("--dot-dir",
                           help="write PCFG / layout-graph DOT files here")
    _add_trace(p_analyze, "the run", chrome=True)
    p_analyze.set_defaults(func=cmd_analyze)

    p_explain = sub.add_parser(
        "explain",
        help="trace a run and report why each array got its layout",
    )
    _add_common(p_explain)
    p_explain.add_argument("--json", action="store_true",
                           help="print the provenance report as JSON")
    _add_trace(p_explain, "the run")
    p_explain.set_defaults(func=cmd_explain)

    p_stats = sub.add_parser(
        "stats",
        help="run one in-process analysis and print the metrics registry",
    )
    _add_common(p_stats)
    p_stats.add_argument("--prometheus", action="store_true",
                         help="Prometheus text exposition format")
    p_stats.add_argument("--json", action="store_true",
                         help="print the raw JSON snapshot")
    p_stats.set_defaults(func=cmd_stats)

    p_compare = sub.add_parser(
        "compare", help="measure every promising scheme on the simulator"
    )
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_hpf = sub.add_parser(
        "hpf", help="emit the program with HPF layout directives"
    )
    _add_common(p_hpf)
    p_hpf.add_argument("--output", "-o", help="write to a file")
    p_hpf.set_defaults(func=cmd_hpf)

    from ..service import DEFAULT_HOST, DEFAULT_PORT, RequestValidationError

    def _add_endpoint(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default=DEFAULT_HOST)
        parser.add_argument("--port", type=int, default=DEFAULT_PORT)
        parser.add_argument("--timeout", type=float, default=300.0,
                            help="client-side socket timeout (s)")

    p_serve = sub.add_parser(
        "serve", help="start the long-lived layout-analysis service"
    )
    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_serve.add_argument("--cache-dir",
                         help="persist the stage cache here "
                              "(omit for memory-only)")
    p_serve.add_argument("--pool", choices=["process", "thread", "serial"],
                         default="serial",
                         help="where estimation batches run: serial "
                              "(default) on the request's thread; "
                              "process/thread only pay above ~25 ms of "
                              "in-thread pricing per request, see "
                              "BENCH_in_thread.json")
    p_serve.add_argument("--workers", type=int,
                         help="worker count (default: cpu count)")
    p_serve.add_argument("--job-timeout", type=float,
                         help="per-estimation-job timeout (s)")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="retries for transient worker failures")
    p_serve.add_argument("--retry-backoff", type=float, default=0.05,
                         help="base seconds of the jittered exponential "
                              "backoff between worker retries "
                              "(0 disables waiting)")
    p_serve.add_argument("--request-timeout", type=float,
                         help="per-request deadline (s)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the stage cache")
    p_serve.add_argument("--telemetry-dir",
                         help="persist the NDJSON event log here "
                              "(omit for an in-memory ring)")
    p_serve.add_argument("--slo-file",
                         help="objectives file served by the slo op and "
                              "`repro slo` by default")
    p_serve.add_argument("--slow-trace-ms", type=float, default=250.0,
                         help="keep the full span tree of requests "
                              "slower than this (tail sampling)")
    p_serve.add_argument("--trace-sample-every", type=int, default=20,
                         help="also keep every K-th healthy trace "
                              "(deterministic on trace id)")
    p_serve.add_argument("--admission-max-concurrency", type=int,
                         default=64,
                         help="ceiling of the adaptive concurrency "
                              "limiter (AIMD discovers the working "
                              "limit below it)")
    p_serve.add_argument("--admission-initial-concurrency", type=int,
                         help="starting concurrency limit "
                              "(default: min(8, max))")
    p_serve.add_argument("--admission-max-queue", type=int, default=64,
                         help="bounded admission queue depth; beyond it "
                              "requests shed with a typed 'overloaded' "
                              "error")
    p_serve.add_argument("--admission-queue-wait", type=float,
                         default=2.0,
                         help="max seconds a request may queue before "
                              "shedding (its own deadline may shed it "
                              "sooner)")
    p_serve.add_argument("--brownout-budget", type=float, default=0.25,
                         help="solver budget (s) for requests admitted "
                              "under brownout: fast labeled-degraded "
                              "answers before shedding starts")
    p_serve.add_argument("--conn-timeout", type=float, default=300.0,
                         help="per-connection socket timeout (s); idle "
                              "or slow-writing clients get a typed "
                              "timeout reply and are disconnected")
    p_serve.add_argument("--drain-deadline", type=float, default=10.0,
                         help="SIGTERM graceful-drain bound (s): stop "
                              "admitting, finish in-flight work, then "
                              "stop the listener")
    p_serve.set_defaults(func=cmd_serve)

    p_request = sub.add_parser(
        "request", help="send one analyze request to a running service"
    )
    _add_common(p_request)
    _add_endpoint(p_request)
    p_request.add_argument("--json", action="store_true",
                           help="print the raw JSON response")
    p_request.add_argument("--no-cache", action="store_true",
                           help="ask the service to bypass its cache")
    p_request.add_argument("--deadline", type=float,
                           help="solver budget in seconds; past it the "
                                "response degrades to the best available "
                                "answer instead of blocking")
    p_request.add_argument("--retries", type=int, default=0,
                           help="retry typed 'overloaded' rejections up "
                                "to this many times (retry-budgeted, "
                                "jittered backoff, honors the server's "
                                "retry_after_s)")
    p_request.set_defaults(func=cmd_request)

    p_service = sub.add_parser(
        "service", help="query or control a running service"
    )
    p_service.add_argument(
        "action",
        choices=["stats", "metrics", "ping", "health", "ready",
                 "shutdown"],
    )
    _add_endpoint(p_service)
    p_service.add_argument("--json", action="store_true",
                           help="print the raw JSON stats")
    p_service.add_argument("--drain-deadline", type=float,
                           help="for shutdown: bound the graceful drain "
                                "to this many seconds")
    p_service.set_defaults(func=cmd_service)

    p_slo = sub.add_parser(
        "slo",
        help="evaluate service-level objectives (live service or "
             "recorded event log)",
    )
    p_slo.add_argument("action", choices=["check", "report"],
                       help="check exits nonzero on violation; "
                            "report always exits 0 unless input is bad")
    p_slo.add_argument("--objectives", required=True,
                       help="objectives file (JSON, repro.obs/slo/v1)")
    p_slo.add_argument("--events",
                       help="evaluate a recorded event log (a directory "
                            "of segments or one .ndjson file) instead "
                            "of a live service")
    p_slo.add_argument("--window", type=float, default=600.0,
                       help="window length for --events replay (s)")
    p_slo.add_argument("--require-data", action="store_true",
                       help="treat empty windows as violations "
                            "(smoke tests)")
    _add_endpoint(p_slo)
    p_slo.add_argument("--json", action="store_true",
                       help="print the machine-readable report")
    p_slo.set_defaults(func=cmd_slo)

    p_top = sub.add_parser(
        "top",
        help="live dashboard of a running service's sliding windows",
    )
    _add_endpoint(p_top)
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between repaints")
    p_top.add_argument("--once", action="store_true",
                       help="print one page and exit (CI-friendly)")
    p_top.add_argument("--objectives",
                       help="objectives file to show budget burn for")
    p_top.set_defaults(func=cmd_top)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="run the differential-oracle fuzzer over generated programs",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; case i uses seed + i")
    p_fuzz.add_argument("--cases", type=int,
                        help="number of cases to run")
    p_fuzz.add_argument("--budget", type=_parse_budget,
                        help="wall-clock budget, e.g. 60s or 2m "
                             "(default when --cases is absent: 100 cases)")
    p_fuzz.add_argument("--out", help="write minimized repro cases here")
    p_fuzz.add_argument("--checks", nargs="*",
                        help="subset of checks to run (default: all)")
    p_fuzz.add_argument("--no-minimize", action="store_true",
                        help="skip failure minimization")
    p_fuzz.add_argument("--max-arrays", type=int, default=3)
    p_fuzz.add_argument("--max-rank", type=int, default=3)
    p_fuzz.add_argument("--max-phases", type=int, default=4)
    p_fuzz.add_argument("--size", type=int,
                        help="declared array extent n (default 8)")
    p_fuzz.add_argument("--no-oracle-scope", dest="oracle_scope",
                        action="store_false",
                        help="allow instances beyond the exhaustive-oracle "
                             "scope (oracle checks skip oversized cases)")
    p_fuzz.add_argument("--procs", type=int, default=4,
                        help="number of processors for the pipeline")
    _add_solver(p_fuzz)
    _add_trace(p_fuzz, "the campaign")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay seeded fault plans over the paper programs and "
             "assert the resilience invariant",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="base seed; case i uses seed + i")
    p_chaos.add_argument("--cases", type=int, default=50,
                         help="maximum number of cases to run")
    p_chaos.add_argument("--budget", type=_parse_budget,
                         help="wall-clock budget, e.g. 60s or 2m "
                              "(stops the campaign early)")
    p_chaos.add_argument("--case-timeout", type=float, default=60.0,
                         help="seconds before a case counts as a hang")
    p_chaos.add_argument("--programs", nargs="*",
                         help="paper programs to target (default: all)")
    p_chaos.add_argument("--procs", type=int, default=4,
                         help="number of processors for the pipeline")
    p_chaos.add_argument("--artifacts",
                         help="write violating fault plans here")
    p_chaos.add_argument("--events",
                         help="record per-case outcomes to an NDJSON "
                              "event log in this directory")
    p_chaos.add_argument("--overload-fraction", type=float, default=0.15,
                         help="fraction of cases run as burst-arrival "
                              "overload cases instead of fault-injection "
                              "cases (0 disables)")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the machine-readable report")
    p_chaos.set_defaults(func=cmd_chaos)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="open-loop load generator: fixed arrival rate against a "
             "running service, classifying every outcome and gating "
             "on violations/p99/goodput/shed",
    )
    p_loadtest.add_argument("--rate", type=float,
                            help="arrivals per second (open loop: the "
                                 "schedule does not slow down when the "
                                 "server does)")
    p_loadtest.add_argument("--duration", type=float,
                            help="run length in seconds")
    p_loadtest.add_argument("--profile",
                            help="JSON profile with defaults "
                                 "(see examples/loadtest.json); flags "
                                 "override it")
    p_loadtest.add_argument("--program",
                            help="paper program to request (default adi)")
    p_loadtest.add_argument("--size", type=int,
                            help="problem size for the request")
    p_loadtest.add_argument("--procs", type=int,
                            help="processor count for the request")
    p_loadtest.add_argument("--deadline", type=float,
                            help="per-request deadline_s sent to the "
                                 "server (enables deadline-aware "
                                 "shedding)")
    p_loadtest.add_argument("--no-cache", action="store_true",
                            help="bypass the server's stage cache so "
                                 "every request costs real work")
    p_loadtest.add_argument("--workers", type=int,
                            help="generator thread pool size "
                                 "(default 256); raise it if "
                                 "max_dispatch_lag_s climbs")
    p_loadtest.add_argument("--request-timeout", type=float,
                            help="client-side timeout per request (s, "
                                 "default 30); expiry counts as "
                                 "no-reply, a violation")
    p_loadtest.add_argument("--host", default=DEFAULT_HOST)
    p_loadtest.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_loadtest.add_argument("--json", action="store_true",
                            help="print the machine-readable report")
    p_loadtest.add_argument("--out",
                            help="write the report JSON here (usable "
                                 "later as --baseline)")
    p_loadtest.add_argument("--baseline",
                            help="earlier report JSON to hold goodput "
                                 "against")
    p_loadtest.add_argument("--min-goodput-ratio", type=float,
                            default=0.8,
                            help="fail if goodput drops below this "
                                 "fraction of the baseline's")
    p_loadtest.add_argument("--p99-budget", type=float,
                            help="admitted-request p99 budget (s)")
    p_loadtest.add_argument("--slo",
                            help="objectives file; gates admitted p99 "
                                 "on its analyze p99 threshold")
    p_loadtest.add_argument("--require-shed", action="store_true",
                            help="fail unless the run shed something "
                                 "(overload legs must prove admission "
                                 "control engaged)")
    p_loadtest.add_argument("--gate", action="store_true",
                            help="exit 1 on any gate problem")
    p_loadtest.set_defaults(func=cmd_loadtest)

    p_bench = sub.add_parser(
        "bench",
        help="deterministic benchmark harness and regression gate",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _add_bench_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--programs", nargs="*",
                            choices=sorted(PROGRAMS),
                            help="paper programs to bench (default: all)")
        parser.add_argument("--stages", nargs="*",
                            help="pipeline stages to bench (default: all)")
        parser.add_argument("--repeats", type=int, default=5,
                            help="timed repetitions per benchmark")
        parser.add_argument("--warmup", type=int, default=1,
                            help="untimed warmup repetitions")
        parser.add_argument("--no-memory", action="store_true",
                            help="skip the tracemalloc memory repetition")
        parser.add_argument("--no-e2e", action="store_true",
                            help="skip the end-to-end benchmarks")
        parser.add_argument("--no-qa", action="store_true",
                            help="skip the generated QA-corpus benchmark")
        _add_solver(parser)
        parser.add_argument("--root", default=".",
                            help="directory holding BENCH_*.json files")
        parser.add_argument("--json", action="store_true",
                            help="print machine-readable JSON")
        _add_trace(parser, "the bench run", chrome=True)

    def _add_bench_thresholds(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--baseline", required=True,
                            help="baseline label or BENCH_*.json path")
        parser.add_argument("--current",
                            help="compare a recorded BENCH_*.json instead "
                                 "of running the suite")
        parser.add_argument("--max-ratio", type=float, default=1.5,
                            help="slowdown ratio that fails the gate")
        parser.add_argument("--mad-sigmas", type=float, default=4.0,
                            help="noise band width in MADs")
        parser.add_argument("--min-slowdown", type=float, default=1e-4,
                            help="absolute slowdown floor in seconds")
        parser.add_argument("--threshold", action="append",
                            metavar="BENCH=RATIO",
                            help="per-benchmark ratio override "
                                 "(repeatable)")

    pb_run = bench_sub.add_parser(
        "run", help="run the suite and append to BENCH_<label>.json"
    )
    _add_bench_common(pb_run)
    pb_run.add_argument("--label", default="baseline",
                        help="baseline label (file: BENCH_<label>.json)")
    pb_run.add_argument("--no-write", action="store_true",
                        help="do not write the trajectory file")
    pb_run.add_argument("--prometheus",
                        help="write Prometheus text exposition here")
    pb_run.set_defaults(func=cmd_bench_run)

    pb_compare = bench_sub.add_parser(
        "compare", help="compare a run against a stored baseline"
    )
    _add_bench_common(pb_compare)
    _add_bench_thresholds(pb_compare)
    pb_compare.set_defaults(func=cmd_bench_compare)

    pb_gate = bench_sub.add_parser(
        "gate",
        help="like compare, but exit 1 on a significant regression",
    )
    _add_bench_common(pb_gate)
    _add_bench_thresholds(pb_gate)
    pb_gate.set_defaults(func=cmd_bench_compare)

    pb_profile = bench_sub.add_parser(
        "profile", help="cProfile hot-function summaries per benchmark"
    )
    _add_bench_common(pb_profile)
    pb_profile.add_argument("--bench", nargs="*",
                            help="substring filters on benchmark IDs")
    pb_profile.add_argument("--limit", type=int, default=10,
                            help="hot functions to show per benchmark")
    pb_profile.set_defaults(func=cmd_bench_profile)

    p_summary = sub.add_parser(
        "summary", help="run test-case grids and print the summary table"
    )
    p_summary.add_argument("--programs", nargs="*", choices=sorted(PROGRAMS))
    p_summary.add_argument("--machine", choices=sorted(MACHINES),
                           default="ipsc860")
    p_summary.add_argument("--quick", action="store_true",
                           help="sample a few cases per program")
    p_summary.add_argument("--verbose", action="store_true")
    p_summary.set_defaults(func=cmd_summary)

    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    try:
        return args.func(args)
    except RequestValidationError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
