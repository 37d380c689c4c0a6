"""The deterministic benchmark suite: what ``repro bench`` actually times.

Two benchmark kinds:

- **stage benchmarks** (``stage:<stage>/<program>``) time one pipeline
  stage in isolation, against inputs prepared once (untimed) by running
  the preceding stages.  The seven stages mirror the cost structure the
  paper reports on: parse, partition, CAG build, alignment ILP,
  distribution enumeration, per-candidate estimation, selection ILP.
  ``cag_build`` is deliberately a *sub*-measurement of ``alignment_ilp``
  (the search-space heuristic rebuilds per-phase CAGs internally);
  stage timings are comparable run-over-run, not disjoint.
  ``stage:layout_graph/<program>`` is the same kind of sub-measurement
  of ``selection_ilp`` — the data layout graph build without the 0-1
  solve — and ``stage:layout_graph/qa-hotloop`` times it on a generated
  program whose absorbed flow runs through a hot control loop.
  ``stage:alignment_ilp/qa-tied`` is the alignment stage of a generated
  program one of whose three conflict resolutions is tied: enumeration,
  then the hand-off to the 0-1 solver.
- **end-to-end benchmarks** (``e2e/<program>``) time ``run_assistant``
  whole, plus ``e2e/qa-corpus``: a fixed-seed batch of generated fuzz
  programs, exercising the many-small-programs service shape.
- **layer benchmarks** (``layer:service.handle/<path>/<program>``) time
  one ``analyze`` request through ``LayoutService.handle`` — protocol,
  cache, metrics, telemetry and all, admission too when it computes —
  on its cache paths: ``cold`` (empty cache: one ``answer`` miss,
  ``run_assistant``, one store), ``warm-mem`` (the answer comes out of
  the memory LRU), ``warm-disk`` (memory tier dropped first: read,
  checksum, unpickle), and ``cold-served`` / ``warm-served`` (the miss
  and the memory hit as ``repro serve --telemetry-dir`` answers them,
  request line in and reply bytes out; see :data:`HANDLE_LAYER` for
  who sends what to which log).  Beside
  them, selected with the same stage name:
  ``layer:service.join/<program>`` — two threads send one fresh request
  at once and the case ends when both are answered, which is one
  compute if the second joins the first and two if it does not — and
  ``layer:eventlog.record/{memory,durable}``, one ``service.request``
  line into the event log a reply waits for.  Under a stage name of
  their own, ``layer:estimation.runner/{in-thread,process}/<program>``:
  the estimation stage with no job runner, and through a warmed
  2-worker process pool — the crossing the service's in-thread default
  does not make, recorded to show what it would cost.
  ``layer:setup.import`` and ``layer:setup.training_db``, selected as
  ``setup``: what a cold process pays before its first answer —
  ``import repro`` in a fresh interpreter (interpreter start included),
  and ``cached_training_database(IPSC860)`` with the process cache
  emptied (the committed table read, not simulated).

Everything is deterministic by construction: bench sizes are pinned per
program (the smallest grid size from EXPERIMENTS.md, so a full run stays
interactive), QA programs come from fixed seeds, estimation runs as
served (on the calling thread), and benchmarks are collected in sorted
order.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ...alignment.search_space import build_alignment_search_spaces
from ...alignment.weights import build_phase_cag
from ...distribution.search_space import DistributionOptions
from ...machine.params import IPSC860, MACHINES, MachineParams
from ...obs import tracing
from ...obs.telemetry import EventLog
from ...obs.tracing import span as obs_span
from ...service.pool import WorkerPool
from ...service.server import LayoutService
from ...service.telemetry import ServiceTelemetry, TailSampler
from ...programs.registry import PROGRAMS
from ...qa.generator import GeneratorConfig, generate_program
from ...selection.layout_graph import build_layout_graph
from ...tool.assistant import (
    AssistantConfig,
    run_assistant,
    stage_alignment,
    stage_distribution,
    stage_estimation,
    stage_frontend,
    stage_partition,
    stage_selection,
)
from .. import training
from .timer import DEFAULT_REPEATS, DEFAULT_WARMUP, Measurement, measure

#: the seven benchmarked pipeline stages, in pipeline order
STAGE_NAMES = (
    "parse", "partition", "cag_build", "alignment_ilp", "distribution",
    "estimation", "selection_ilp",
)

#: the data layout graph build, timed on its own beside the seven
GRAPH_STAGE = "layout_graph"

#: whole requests through ``LayoutService.handle``, by cache path;
#: selectable with ``--stages`` like a stage, dropped by ``--no-e2e``.
#: ``cold``, ``warm-mem`` and ``warm-disk`` send the source text and the
#: machine as a parameter dict to a service whose event log is the
#: memory-only ring — what an embedder does.  ``cold-served`` and
#: ``warm-served`` send what a client of ``repro serve`` does — the
#: program's name with ``size`` and ``procs``, machine by registry name
#: — to a service that writes its event log to disk, under default
#: admission, through ``LayoutService.handle_line``, what a connection
#: runs for a request line: the miss and the hit that the repo
#: benchmark's ``service-open`` and ``service-warm`` measure over a
#: socket, reply encoding included.
HANDLE_LAYER = "service.handle"

#: the estimation stage by who runs its batch: the calling thread, or a
#: process pool; selected and dropped like :data:`HANDLE_LAYER`
RUNNER_LAYER = "estimation.runner"

#: a cold process's set-up; selected and dropped like :data:`HANDLE_LAYER`
SETUP_LAYER = "setup"

#: pinned per-program bench problem sizes (smallest grid size each, so
#: the whole suite runs in seconds; changing these invalidates baselines)
BENCH_SIZES: Dict[str, int] = {
    "adi": 200,
    "erlebacher": 28,
    "tomcatv": 72,
    "shallow": 136,
}

#: pinned processor count for every benchmark
BENCH_NPROCS = 8

#: the program whose selection stage is also timed over the widened
#: (CYCLIC / BLOCK-CYCLIC / multi-dim) search space, as
#: ``stage:selection_ilp/<program>-extended``, and the processor count it
#: runs at: there the residual component has 17 phases of up to 14
#: candidates, so elimination-table width is what the time depends on
#: (78 400 elements at its widest)
EXTENDED_PROGRAM = "tomcatv"
EXTENDED_NPROCS = 2

#: fixed seeds of the generated QA-corpus batch
QA_SEEDS = (0, 1, 2, 3)

#: ``GeneratorConfig()`` seed of ``stage:layout_graph/qa-hotloop``: array
#: ``a`` is used by the last phase of a control loop whose first two
#: phases do not touch it and loop on themselves 21 and 189 times
HOTLOOP_SEED = 1413

#: ``GeneratorConfig()`` seed of ``stage:alignment_ilp/qa-tied``: all 108
#: assignments of its ``phase1`` CAG are optimal, under six different
#: cuts, so that resolution enumerates and then hands the choice to the
#: 0-1 solver — the price of a tie hand-off (its two import resolutions
#: are unique and start no solver)
TIED_SEED = 1251


def default_bench_config(
    machine: MachineParams = IPSC860, backend: str = "scipy"
) -> AssistantConfig:
    return AssistantConfig(
        nprocs=BENCH_NPROCS, machine=machine, ilp_backend=backend
    )


@dataclass(frozen=True)
class BenchCase:
    """One runnable benchmark: a stable ID plus a zero-arg thunk."""

    bench_id: str
    kind: str  # "stage" | "e2e" | "layer"
    program: str
    stage: Optional[str]
    fn: Callable[[], Any]


class PreparedProgram:
    """One program's pipeline inputs, computed once and shared by all of
    its stage benchmarks (preparation is untimed)."""

    def __init__(self, name: str, source: str, config: AssistantConfig):
        self.name = name
        self.source = source
        self.config = config
        self.program, self.symbols = stage_frontend(source)
        self.partition, self.pcfg, self.template = stage_partition(
            self.program, self.symbols, config
        )
        self.alignment_spaces = stage_alignment(
            self.partition, self.pcfg, self.symbols, self.template, config
        )
        self.layout_spaces = stage_distribution(
            self.partition, self.alignment_spaces, self.template,
            self.symbols, config,
        )
        self.estimates, self.db = self.estimate()

    def estimate(self, job_runner=None):
        """The estimation stage on the prepared inputs: on the calling
        thread, or with its batch handed to ``job_runner``."""
        return stage_estimation(
            self.partition, self.layout_spaces, self.symbols, self.config,
            job_runner=job_runner,
        )


def bench_source(name: str, size: Optional[int] = None) -> str:
    """The pinned benchmark source text of one paper program."""
    return PROGRAMS[name].source(
        n=size if size is not None else BENCH_SIZES[name], maxiter=3
    )


def _stage_cases(prep: PreparedProgram) -> List[BenchCase]:
    """The per-stage benchmarks of one prepared program: the seven
    stages and the layout-graph build."""
    config = prep.config

    def run_parse() -> None:
        stage_frontend(prep.source)

    def run_partition() -> None:
        stage_partition(prep.program, prep.symbols, config)

    def run_cag_build() -> None:
        for phase in prep.partition.phases:
            build_phase_cag(phase, prep.symbols)

    def run_alignment_ilp() -> None:
        build_alignment_search_spaces(
            prep.partition.phases, prep.pcfg, prep.symbols, prep.template,
            backend=config.ilp_backend,
        )

    def run_distribution() -> None:
        stage_distribution(
            prep.partition, prep.alignment_spaces, prep.template,
            prep.symbols, config,
        )

    def run_selection_ilp() -> None:
        stage_selection(
            prep.partition, prep.pcfg, prep.estimates, prep.symbols,
            prep.db, config,
        )

    def run_layout_graph() -> None:
        build_layout_graph(
            prep.partition.phases, prep.pcfg, prep.estimates,
            prep.symbols, prep.db, config.nprocs,
        )

    thunks = {
        "parse": run_parse,
        "partition": run_partition,
        "cag_build": run_cag_build,
        "alignment_ilp": run_alignment_ilp,
        "distribution": run_distribution,
        "estimation": prep.estimate,
        "selection_ilp": run_selection_ilp,
        GRAPH_STAGE: run_layout_graph,
    }
    return [
        BenchCase(
            bench_id=f"stage:{stage}/{prep.name}",
            kind="stage",
            program=prep.name,
            stage=stage,
            fn=fn,
        )
        for stage, fn in thunks.items()
    ]


#: one sampler shared by all e2e cases in a process, mirroring the
#: service: the 1-in-K healthy sample is a property of the stream, not
#: of one request
_BENCH_SAMPLER = TailSampler()


def _run_traced(fn: Callable[[], Any]) -> None:
    """One e2e repetition the way production serves it: a fresh tracer
    is always on, and the tail sampler decides *after* the request
    whether the span tree is worth serializing.  The timed region
    includes the tracing and sampling overhead — that is exactly the
    cost the <5% always-on budget bounds."""
    from time import perf_counter

    tracer = tracing.Tracer(detail=False)
    start = perf_counter()
    with tracing.activate(tracer):
        with obs_span("request"):
            fn()
    _BENCH_SAMPLER.offer(tracer, perf_counter() - start,
                         ok=True, degraded=False)


def _e2e_case(prep: PreparedProgram) -> BenchCase:
    def run_e2e() -> None:
        _run_traced(lambda: run_assistant(prep.source, prep.config))

    return BenchCase(
        bench_id=f"e2e/{prep.name}", kind="e2e", program=prep.name,
        stage=None, fn=run_e2e,
    )


@lru_cache(maxsize=None)
def _handle_service(program: str, served: bool = False):
    """One engine per program and process, and the scratch directory it
    works in (held here, so it goes away with the interpreter); no pool
    is handed in, so a miss is computed wherever the default puts it.
    ``served``: the event log is on disk, as under ``repro serve
    --telemetry-dir``."""
    scratch = tempfile.TemporaryDirectory(prefix=f"repro-bench-{program}-")
    telemetry = ServiceTelemetry(
        events_dir=os.path.join(scratch.name, "events")
    ) if served else None
    return scratch, LayoutService(
        cache_dir=os.path.join(scratch.name, "cache"), telemetry=telemetry,
    )


def _handle_cases(prep: PreparedProgram, size: int) -> List[BenchCase]:
    """One request's whole way through the service, per cache path, and
    a duplicate pair's."""
    name = prep.name
    config = prep.config
    _, service = _handle_service(name)
    _, served = _handle_service(name, served=True)
    payload = {
        "op": "analyze", "source": prep.source,
        "procs": config.nprocs,
        "machine": asdict(config.machine),
        "backend": config.ilp_backend,
    }
    by_name = MACHINES.get(config.machine.name) == config.machine
    served_line = json.dumps({
        "op": "analyze", "program": name, "size": size,
        "procs": config.nprocs, "backend": config.ilp_backend,
        "machine": config.machine.name if by_name else payload["machine"],
    }).encode()

    def handle(hits: Optional[int]):
        """One request; ``hits`` names the cache path it must take (an
        exact answer off that path), ``None`` takes any ``ok`` reply."""
        reply = service.handle(dict(payload))
        if not reply.get("ok") or hits is not None and (
            reply["degraded"] or reply["cache_hits"] != hits
        ):
            raise RuntimeError(f"{name}: not the path to time: {reply}")
        return reply

    def handle_served(hits: Optional[int]) -> None:
        """``handle`` over the wire path, line in and bytes out; of the
        reply only the tail after the answer is decoded to check it."""
        reply = served.handle_line(served_line)
        ok = reply.startswith(b'{"ok": true')
        if ok and hits is not None:
            tail = json.loads(b"{" + reply[reply.rindex(b'"stage_timings"'):])
            ok = not tail["degraded"] and tail["cache_hits"] == hits
        if not ok:
            raise RuntimeError(f"{name}: not the path to time: {reply!r}")

    def empty_cache(engine=service) -> None:
        shutil.rmtree(engine.cache.root, ignore_errors=True)
        engine.cache.clear_memory()

    def run_cold() -> None:
        empty_cache()
        handle(0)

    def run_cold_served() -> None:
        empty_cache(served)
        handle_served(0)

    def run_warm_mem() -> None:
        handle(1)

    def run_warm_disk() -> None:
        service.cache.clear_memory()
        handle(1)

    def run_warm_served() -> None:
        handle_served(1)

    def run_join() -> None:
        empty_cache()
        first: List[Any] = []
        other = threading.Thread(target=lambda: first.append(handle(None)))
        other.start()
        second = handle(None)
        other.join()
        if not first:
            raise RuntimeError(f"{name}: one of the pair got no answer")
        # one of a pair that both computed may have done so under
        # brownout; two exact answers are one answer
        exact = not (first[0]["degraded"] or second["degraded"])
        if exact and first[0]["layouts"] != second["layouts"]:
            raise RuntimeError(f"{name}: the pair disagrees")

    # every path leaves the answer stored in both tiers, so the cases
    # run in any order and any subset
    run_cold()
    handle_served(None)
    thunks = {
        "cold": run_cold, "warm-mem": run_warm_mem,
        "warm-disk": run_warm_disk,
        "cold-served": run_cold_served, "warm-served": run_warm_served,
    }
    return [
        BenchCase(
            bench_id=f"layer:{HANDLE_LAYER}/{path}/{name}",
            kind="layer", program=name, stage=HANDLE_LAYER, fn=fn,
        )
        for path, fn in thunks.items()
    ] + [BenchCase(
        bench_id=f"layer:service.join/{name}",
        kind="layer", program=name, stage=HANDLE_LAYER, fn=run_join,
    )]


@lru_cache(maxsize=None)
def _process_pool() -> WorkerPool:
    """The pool of the ``estimation.runner/process`` cases: one a
    process, built when the first of them is, shut down with the
    interpreter."""
    pool = WorkerPool(kind="process", max_workers=2)
    atexit.register(pool.shutdown)
    return pool


def _runner_cases(prep: PreparedProgram) -> List[BenchCase]:
    """The estimation stage priced on the calling thread and through the
    process pool, whose workers the untimed first batch starts."""
    pool = _process_pool()

    def run_process() -> None:
        prep.estimate(pool.run_jobs)
        if pool.active_kind != "process":
            raise RuntimeError(f"not the pool to time: {pool.describe()}")

    run_process()
    return [
        BenchCase(
            bench_id=f"layer:{RUNNER_LAYER}/{runner}/{prep.name}",
            kind="layer", program=prep.name, stage=RUNNER_LAYER, fn=fn,
        )
        for runner, fn in (
            ("in-thread", prep.estimate), ("process", run_process),
        )
    ]


@lru_cache(maxsize=None)
def _event_logs():
    """The scratch directory and the two logs of the ``eventlog.record``
    cases, held for the life of the interpreter."""
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-eventlog-")
    return scratch, {"memory": EventLog(), "durable": EventLog(scratch.name)}


def _eventlog_cases() -> List[BenchCase]:
    """One ``service.request`` line, as the service writes it for a hit,
    into the memory-only ring and into a log on disk."""
    attrs = {"op": "analyze", "seconds": 1e-4, "ok": True,
             "degraded": False, "request_id": "bench", "tier": "answer"}
    return [
        BenchCase(
            bench_id=f"layer:eventlog.record/{kind}", kind="layer",
            program="eventlog", stage=HANDLE_LAYER,
            fn=lambda log=log: log.record("service.request", attrs),
        )
        for kind, log in _event_logs()[1].items()
    ]


def _setup_cases() -> List[BenchCase]:
    """``import repro`` in a fresh interpreter, and the default machine's
    training database as a fresh process first gets it."""
    src = Path(__file__).resolve().parents[3]  # this suite's checkout
    env = dict(os.environ, PYTHONPATH=str(src))

    def run_import() -> None:
        subprocess.run([sys.executable, "-c", "import repro"], env=env,
                       check=True)

    def cold_training_db() -> None:
        with training._DB_CACHE_LOCK:
            training._DB_CACHE.clear()
        training.cached_training_database(IPSC860)

    return [
        BenchCase(
            bench_id=f"layer:{SETUP_LAYER}.{name}", kind="layer",
            program=SETUP_LAYER, stage=SETUP_LAYER, fn=fn,
        )
        for name, fn in (
            ("import", run_import),
            ("training_db", cold_training_db),
        )
    ]


def _qa_corpus_case(config: AssistantConfig,
                    seeds: Sequence[int]) -> BenchCase:
    """One benchmark that runs the whole pipeline over a fixed-seed batch
    of generated programs (the fuzzing / many-small-requests shape)."""
    gen_config = GeneratorConfig().small()
    sources = [
        generate_program(seed, gen_config).source for seed in seeds
    ]
    qa_config = AssistantConfig(
        nprocs=4, machine=config.machine, ilp_backend=config.ilp_backend
    )

    def run_batch() -> None:
        for source in sources:
            _run_traced(lambda s=source: run_assistant(s, qa_config))

    return BenchCase(
        bench_id="e2e/qa-corpus", kind="e2e", program="qa-corpus",
        stage=None, fn=run_batch,
    )


def build_suite(
    programs: Optional[Sequence[str]] = None,
    config: Optional[AssistantConfig] = None,
    stages: Optional[Sequence[str]] = None,
    include_e2e: bool = True,
    include_qa: bool = True,
    qa_seeds: Sequence[int] = QA_SEEDS,
    sizes: Optional[Mapping[str, int]] = None,
) -> List[BenchCase]:
    """Collect the benchmark suite (preparation runs here, untimed)."""
    config = config or default_bench_config()
    names = list(programs) if programs else sorted(BENCH_SIZES)
    known_stages = STAGE_NAMES + (
        GRAPH_STAGE, HANDLE_LAYER, RUNNER_LAYER, SETUP_LAYER,
    )
    wanted_stages = tuple(stages) if stages else known_stages
    unknown = sorted(set(wanted_stages) - set(known_stages))
    if unknown:
        raise ValueError(
            f"unknown stages {unknown}; known: {list(known_stages)}"
        )
    cases: List[BenchCase] = []
    for name in names:
        if name not in PROGRAMS:
            raise ValueError(
                f"unknown program {name!r}; known: {sorted(PROGRAMS)}"
            )
        size = (sizes or {}).get(name, BENCH_SIZES.get(name))
        with obs_span("bench.prepare", program=name, size=size):
            prep = PreparedProgram(name, bench_source(name, size), config)
        cases.extend(
            c for c in _stage_cases(prep) if c.stage in wanted_stages
        )
        if include_e2e:
            cases.append(_e2e_case(prep))
            if HANDLE_LAYER in wanted_stages:
                cases.extend(_handle_cases(prep, size))
            if RUNNER_LAYER in wanted_stages:
                cases.extend(_runner_cases(prep))
        if name == EXTENDED_PROGRAM and "selection_ilp" in wanted_stages:
            extended = PreparedProgram(
                f"{name}-extended", prep.source,
                replace(config, nprocs=EXTENDED_NPROCS,
                        distributions=DistributionOptions.extended()),
            )
            cases.extend(
                c for c in _stage_cases(extended)
                if c.stage == "selection_ilp"
            )
    if include_e2e and HANDLE_LAYER in wanted_stages:
        cases.extend(_eventlog_cases())
    if include_e2e and SETUP_LAYER in wanted_stages:
        cases.extend(_setup_cases())
    if include_e2e and include_qa:
        cases.append(_qa_corpus_case(config, qa_seeds))
    for name, seed, stage in (
        ("qa-hotloop", HOTLOOP_SEED, GRAPH_STAGE),
        ("qa-tied", TIED_SEED, "alignment_ilp"),
    ):
        if include_qa and stage in wanted_stages:
            generated = PreparedProgram(
                name, generate_program(seed, GeneratorConfig()).source,
                replace(config, nprocs=4),
            )
            cases.extend(
                c for c in _stage_cases(generated) if c.stage == stage
            )
    return sorted(cases, key=lambda c: c.bench_id)


def run_suite(
    cases: Sequence[BenchCase],
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    memory: bool = True,
    progress: Optional[Callable[[BenchCase, Measurement], None]] = None,
) -> Dict[str, Measurement]:
    """Measure every case; returns ``{bench_id: Measurement}`` sorted."""
    results: Dict[str, Measurement] = {}
    for case in cases:
        with obs_span("bench.case", bench=case.bench_id, kind=case.kind):
            m = measure(case.bench_id, case.fn, repeats=repeats,
                        warmup=warmup, memory=memory)
        results[case.bench_id] = m
        if progress is not None:
            progress(case, m)
    return dict(sorted(results.items()))


__all__ = [
    "BENCH_NPROCS", "BENCH_SIZES", "BenchCase", "EXTENDED_NPROCS",
    "EXTENDED_PROGRAM", "GRAPH_STAGE", "HANDLE_LAYER",
    "PreparedProgram", "RUNNER_LAYER", "SETUP_LAYER",
    "QA_SEEDS", "STAGE_NAMES", "TIED_SEED", "bench_source", "build_suite",
    "default_bench_config", "run_suite",
]
