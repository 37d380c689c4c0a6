"""Chaos campaigns: seeded fault plans replayed over the paper programs.

Each case arms a randomly generated (but seed-reproducible)
:class:`~repro.resilience.faults.FaultPlan` and pushes one of the
paper's four benchmark programs through a fresh
:class:`~repro.service.server.LayoutService` — twice, so both the
compute and the cache-load paths run under fire.  A seeded fraction of
cases are **overload cases** instead: no injected faults, just a burst
of concurrent arrivals against a deliberately tiny admission
controller, so shedding and brownout run under the same invariant as
fault injection.  The campaign asserts, on every case:

    *correct result, labeled-degraded result, clean typed error, or
    typed overload rejection — never a wrong answer, a hang, or an
    unhandled crash.*

"Correct" is judged against a fault-free reference pass over the same
request; "typed" means the response's ``error_kind`` names a known
error class rather than the catch-all ``internal``.  Violating cases
have their fault plans serialized to an artifact directory so they can
be replayed verbatim (``FaultPlan.from_dict`` + ``faults.armed``).

This module sits *above* the service layer, so it is deliberately not
re-exported from :mod:`repro.resilience` — import it as
``repro.resilience.chaos``.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import telemetry
from ..obs.telemetry import EventLog
from ..perf.bench.suite import BENCH_SIZES
from .atomic import atomic_write_json
from .faults import CORRUPTIBLE_SITES, FaultPlan, FaultSpec, armed

#: the paper's four benchmark programs (Table 1)
DEFAULT_PROGRAMS = ("adi", "erlebacher", "shallow", "tomcatv")

#: sites a generated plan may target ("server.reply" is TCP-layer and
#: never fires in the in-process campaign, so plans skip it)
PLAN_SITES = (
    "cache.load", "cache.store", "pool.submit", "pool.result",
    "service.request", "ilp.solve",
)

#: error kinds accepted as "clean typed error" (the catch-all
#: "internal" is a violation: it means an exception escaped untyped)
TYPED_ERROR_KINDS = frozenset({
    "injected-fault", "deadline", "corrupt-state", "resilience",
    "bad-request", "timeout", "request-too-large", "overloaded",
    "shutting-down",
})

#: relative tolerance when comparing a faulted run's predicted cost
#: against the fault-free reference
_REL_TOL = 1e-6


def build_plan(seed: int) -> FaultPlan:
    """Generate the fault plan of one chaos case, deterministically
    from ``seed``: one to three specs over :data:`PLAN_SITES`, with
    modes, probabilities, and flaky counts drawn from the seeded RNG."""
    rng = random.Random(f"chaos-plan:{seed}")
    specs: List[FaultSpec] = []
    for _ in range(rng.randint(1, 3)):
        site = rng.choice(PLAN_SITES)
        roll = rng.random()
        if site in CORRUPTIBLE_SITES and roll < 0.35:
            specs.append(FaultSpec(
                site=site, mode="corrupt",
                probability=rng.uniform(0.5, 1.0),
            ))
        elif roll < 0.55:
            specs.append(FaultSpec(
                site=site, mode="flaky",
                times=rng.randint(1, 2),
                probability=1.0,
            ))
        elif roll < 0.85:
            specs.append(FaultSpec(
                site=site, mode="error",
                probability=rng.uniform(0.2, 0.8),
            ))
        else:
            specs.append(FaultSpec(
                site=site, mode="delay",
                delay_s=rng.uniform(0.001, 0.01),
                probability=rng.uniform(0.5, 1.0),
            ))
    return FaultPlan(seed=seed, specs=specs)


@dataclass
class CaseResult:
    """One chaos case and its verdict."""

    index: int
    seed: int
    program: str
    plan: FaultPlan
    #: "ok" | "degraded" | "typed-error" | "overload-shed" | "violation"
    outcome: str
    detail: str = ""
    #: "faults" (seeded fault plan) or "overload" (burst arrivals)
    mode: str = "faults"
    faults_fired: int = 0
    #: ``fault.injected`` telemetry events observed during the case —
    #: must cover ``faults_fired`` (a shortfall is a *silent fault*)
    faults_observed: int = 0
    seconds: float = 0.0

    @property
    def violated(self) -> bool:
        return self.outcome == "violation"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "program": self.program,
            "plan": self.plan.to_dict(),
            "outcome": self.outcome,
            "detail": self.detail,
            "mode": self.mode,
            "faults_fired": self.faults_fired,
            "faults_observed": self.faults_observed,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class ChaosReport:
    """The verdicts of one campaign."""

    seed: int
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(c.violated for c in self.cases)

    def count(self, outcome: str) -> int:
        return sum(1 for c in self.cases if c.outcome == outcome)

    def violations(self) -> List[CaseResult]:
        return [c for c in self.cases if c.violated]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "total": len(self.cases),
            "ok": self.count("ok"),
            "degraded": self.count("degraded"),
            "typed_errors": self.count("typed-error"),
            "overload_shed": self.count("overload-shed"),
            "violations": [c.to_dict() for c in self.violations()],
        }

    def summary(self) -> str:
        lines = [
            f"chaos campaign: {len(self.cases)} cases (seed {self.seed})",
            f"  correct results:   {self.count('ok')}",
            f"  labeled degraded:  {self.count('degraded')}",
            f"  clean typed errors:{self.count('typed-error'):4d}",
            f"  overload cases shed cleanly: "
            f"{self.count('overload-shed')}",
            f"  INVARIANT VIOLATIONS: {len(self.violations())}",
        ]
        for case in self.violations():
            lines.append(
                f"    case {case.index} (seed {case.seed}, "
                f"{case.program}, {case.mode}): {case.detail}"
            )
        lines.append(
            "invariant held: every case returned a correct result, a "
            "labeled-degraded result, a clean typed error, or a typed "
            "overload rejection"
            if self.ok else
            "INVARIANT VIOLATED — see the fault-plan artifacts"
        )
        return "\n".join(lines)


def _analyze_twice(
    cache_dir: str, request: Dict[str, Any]
) -> Dict[str, Any]:
    """Run one request twice on a fresh service, dropping the memory
    tier in between so the second pass really reads the disk entries
    (``store`` fills the LRU too); returns the final response dict."""
    from ..service.pool import WorkerPool
    from ..service.server import LayoutService

    with LayoutService(
        cache_dir=cache_dir,
        pool=WorkerPool(kind="thread", max_workers=2),
    ) as service:
        service.handle(dict(request))
        service.cache.clear_memory()
        return service.handle(dict(request))


def _reference_response(
    program: str, procs: int, cache: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """The fault-free answer for one program (memoized per campaign)."""
    if program not in cache:
        tmp = tempfile.mkdtemp(prefix="chaos-ref-")
        try:
            cache[program] = _analyze_twice(tmp, _request(program, procs))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if not cache[program].get("ok"):
            raise RuntimeError(
                f"fault-free reference pass failed for {program!r}: "
                f"{cache[program].get('error')}"
            )
    return cache[program]


def _request(program: str, procs: int) -> Dict[str, Any]:
    return {
        "op": "analyze",
        "program": program,
        "size": BENCH_SIZES.get(program),
        "procs": procs,
        "request_id": f"chaos-{program}",
    }


#: fraction of cases that also run under a tight request deadline, so
#: campaigns exercise the anytime-ILP / labeled-degraded path under fire
DEADLINE_CASE_FRACTION = 0.3


def _case_request(seed: int, program: str, procs: int) -> Dict[str, Any]:
    """The (seed-deterministic) request of one case: the reference
    request, sometimes with a deadline tight enough to force the
    solvers onto their incumbent/greedy fallbacks."""
    request = _request(program, procs)
    rng = random.Random(f"chaos-request:{seed}")
    if rng.random() < DEADLINE_CASE_FRACTION:
        request["deadline_s"] = rng.uniform(0.0005, 0.05)
    return request


def _classify(
    response: Optional[Dict[str, Any]],
    reference: Dict[str, Any],
) -> Tuple[str, str]:
    """Apply the invariant to one faulted response."""
    if response is None:
        return "violation", "no response (worker crashed without reply)"
    if response.get("ok"):
        if response.get("degraded"):
            if not response.get("layouts"):
                return ("violation",
                        "degraded response carries no layouts")
            return "degraded", ""
        got = response.get("predicted_total_us")
        want = reference.get("predicted_total_us")
        if got is None or want is None:
            return "violation", "response missing predicted_total_us"
        if abs(got - want) > _REL_TOL * max(abs(want), 1.0):
            return (
                "violation",
                f"wrong answer: predicted {got} != reference {want} "
                "in a response not labeled degraded",
            )
        if response.get("layouts") != reference.get("layouts"):
            return (
                "violation",
                "wrong answer: layouts differ from the fault-free "
                "reference in a response not labeled degraded",
            )
        return "ok", ""
    kind = response.get("error_kind")
    if kind in TYPED_ERROR_KINDS:
        return "typed-error", str(kind)
    return (
        "violation",
        f"untyped failure (error_kind={kind!r}): "
        f"{response.get('error')}",
    )


def run_case(
    index: int,
    seed: int,
    program: str,
    reference: Dict[str, Any],
    case_timeout_s: float = 60.0,
) -> CaseResult:
    """Run one seeded case: arm the plan, analyze under fire (in a
    watchdog thread so a hang is a verdict, not a stuck campaign),
    classify the response."""
    plan = build_plan(seed)
    cache_dir = tempfile.mkdtemp(prefix="chaos-case-")
    box: Dict[str, Any] = {}

    request = _case_request(seed, program, procs=_procs(reference))

    def work() -> None:
        try:
            box["response"] = _analyze_twice(cache_dir, request)
        except BaseException as exc:  # noqa: BLE001 - verdict, not flow
            box["crash"] = exc

    # Count ``fault.injected`` telemetry during the case: every firing
    # the injector records must surface as an event — a shortfall is a
    # silent fault, itself an invariant violation.  (list.append is
    # atomic under the GIL, so the counter is thread-safe.)
    observed: List[int] = []

    def count_faults(type_: str, attrs: Dict[str, Any]) -> None:
        if type_ == "fault.injected":
            observed.append(1)

    start = perf_counter()
    fired = 0
    telemetry.install_sink(count_faults)
    try:
        with armed(plan) as injector:
            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            thread.join(timeout=case_timeout_s)
            hung = thread.is_alive()
            fired = injector.fired_count()
        if hung:
            outcome, detail = (
                "violation",
                f"hang: case still running after {case_timeout_s}s",
            )
        elif "crash" in box:
            exc = box["crash"]
            outcome, detail = (
                "violation",
                f"unhandled crash: {type(exc).__name__}: {exc}",
            )
        else:
            outcome, detail = _classify(box.get("response"), reference)
        if len(observed) < fired:
            # Firing counters move under the injector lock while the
            # emit happens just after it; give a straggler thread one
            # beat before calling the fault silent.
            thread.join(timeout=0.1)
        if outcome != "violation" and not hung and len(observed) < fired:
            outcome, detail = (
                "violation",
                f"silent fault: {fired} injected but only "
                f"{len(observed)} fault.injected telemetry events",
            )
    finally:
        telemetry.remove_sink(count_faults)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return CaseResult(
        index=index,
        seed=seed,
        program=program,
        plan=plan,
        outcome=outcome,
        detail=detail,
        faults_fired=fired,
        faults_observed=len(observed),
        seconds=perf_counter() - start,
    )


def _procs(reference: Dict[str, Any]) -> int:
    return int(reference.get("_procs", 4))


def run_overload_case(
    index: int,
    seed: int,
    program: str,
    reference: Dict[str, Any],
    case_timeout_s: float = 60.0,
) -> CaseResult:
    """One burst-arrival overload case: no injected faults — instead a
    seeded burst of concurrent requests hits a service whose admission
    controller is deliberately tiny (limit 1–2, queue 1, 50ms max
    wait), so shedding *must* happen.  Every reply must satisfy the
    extended invariant: correct, labeled-degraded, clean typed error,
    or a typed overload rejection (``overloaded`` rejections must
    carry ``retry_after_s``)."""
    from ..resilience.admission import (
        AdaptiveConcurrencyLimiter,
        AdmissionController,
    )
    from ..service.pool import WorkerPool
    from ..service.protocol import SHED_KINDS
    from ..service.server import LayoutService

    rng = random.Random(f"chaos-overload:{seed}")
    burst = rng.randint(8, 16)
    # draw per-slot deadlines up front: the RNG is not shared across
    # the burst threads, keeping the case seed-deterministic
    deadlines = [rng.uniform(0.05, 0.5) for _ in range(burst)]
    request = _request(program, procs=_procs(reference))
    start = perf_counter()
    responses: List[Optional[Dict[str, Any]]] = [None] * burst

    admission = AdmissionController(
        limiter=AdaptiveConcurrencyLimiter(
            initial_limit=1, min_limit=1, max_limit=2,
        ),
        max_queue=1,
        max_queue_wait_s=0.05,
    )
    with LayoutService(
        pool=WorkerPool(kind="thread", max_workers=2),
        use_cache=False,
        admission=admission,
    ) as service:

        def fire(slot: int) -> None:
            payload = dict(request)
            payload["request_id"] = f"chaos-overload-{seed}-{slot}"
            payload["deadline_s"] = deadlines[slot]
            try:
                responses[slot] = service.handle(payload)
            except BaseException as exc:  # noqa: BLE001 - verdict
                responses[slot] = {
                    "ok": False, "error_kind": None,
                    "error": f"crash: {type(exc).__name__}: {exc}",
                }

        threads = [
            threading.Thread(target=fire, args=(slot,), daemon=True)
            for slot in range(burst)
        ]
        deadline_at = perf_counter() + case_timeout_s
        for thread in threads:
            thread.start()
        hung = False
        for thread in threads:
            thread.join(timeout=max(deadline_at - perf_counter(), 0.0))
            hung = hung or thread.is_alive()

    outcome, detail = "ok", ""
    shed = 0
    if hung:
        outcome, detail = (
            "violation",
            f"hang: overload burst still running after {case_timeout_s}s",
        )
    else:
        saw_degraded = False
        for slot, response in enumerate(responses):
            kind = (response or {}).get("error_kind")
            if kind in SHED_KINDS:
                shed += 1
                if (kind == "overloaded"
                        and response.get("retry_after_s") is None):
                    outcome, detail = (
                        "violation",
                        "overloaded rejection without retry_after_s",
                    )
                    break
                continue
            verdict, why = _classify(response, reference)
            if verdict == "violation":
                outcome, detail = "violation", f"burst slot {slot}: {why}"
                break
            saw_degraded = saw_degraded or verdict == "degraded"
        else:
            if shed:
                outcome = "overload-shed"
                detail = f"{shed}/{burst} burst requests shed cleanly"
            elif saw_degraded:
                outcome, detail = "degraded", ""
    return CaseResult(
        index=index,
        seed=seed,
        program=program,
        plan=FaultPlan(seed=seed, specs=[]),
        outcome=outcome,
        detail=detail,
        mode="overload",
        seconds=perf_counter() - start,
    )


def run_chaos(
    cases: int = 50,
    seed: int = 0,
    programs: Sequence[str] = DEFAULT_PROGRAMS,
    budget_s: Optional[float] = None,
    case_timeout_s: float = 60.0,
    procs: int = 4,
    artifact_dir: Optional[str] = None,
    events_dir: Optional[str] = None,
    progress=None,
    overload_fraction: float = 0.15,
) -> ChaosReport:
    """Run a campaign of up to ``cases`` seeded cases (stopping early
    when ``budget_s`` wall-clock seconds run out), cycling through
    ``programs``.  A seed-deterministic ``overload_fraction`` of cases
    run as burst-arrival overload cases (:func:`run_overload_case`)
    instead of fault-injection cases.  Violating cases write their
    fault plans under ``artifact_dir`` for verbatim replay; every
    case's verdict is also written through the structured event log
    (durable under ``events_dir``, in-memory otherwise)."""
    report = ChaosReport(seed=seed)
    references: Dict[str, Dict[str, Any]] = {}
    start = perf_counter()
    with EventLog(events_dir) as event_log:
        for index in range(cases):
            if budget_s is not None and perf_counter() - start >= budget_s:
                break
            program = programs[index % len(programs)]
            reference = dict(
                _reference_response(program, procs, references)
            )
            reference["_procs"] = procs
            case_seed = seed + index
            mode_roll = random.Random(
                f"chaos-mode:{case_seed}"
            ).random()
            run = (
                run_overload_case if mode_roll < overload_fraction
                else run_case
            )
            case = run(
                index=index,
                seed=case_seed,
                program=program,
                reference=reference,
                case_timeout_s=case_timeout_s,
            )
            report.cases.append(case)
            event_log.record("chaos.case", case.to_dict())
            if progress is not None:
                progress(case)
            if case.violated and artifact_dir:
                os.makedirs(artifact_dir, exist_ok=True)
                atomic_write_json(
                    os.path.join(
                        artifact_dir, f"violation-{case.index}.json"
                    ),
                    case.to_dict(),
                )
        event_log.record("chaos.campaign", report.to_dict())
    return report
