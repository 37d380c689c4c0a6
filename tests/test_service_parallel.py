"""Parallel-vs-serial equivalence of the estimation stage, and the worker
pool's robustness contract (timeouts, rebuild-after-shutdown, serial
fallback)."""

from __future__ import annotations

import time

import pytest

from repro.machine.params import IPSC860
from repro.perf.estimator import estimate_search_spaces
from repro.perf.training import cached_training_database
from repro.programs.registry import PROGRAMS
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.errors import RequestTimeout
from repro.service.errors import JobTimeoutError
from repro.service.pool import WorkerPool
from repro.tool.assistant import (
    AssistantConfig,
    stage_alignment,
    stage_distribution,
    stage_frontend,
    stage_partition,
)

BENCHMARKS = ("adi", "erlebacher", "tomcatv", "shallow")


def _estimation_inputs(name: str):
    spec = PROGRAMS[name]
    kwargs = {"n": 32}
    if spec.has_time_loop:
        kwargs["maxiter"] = 2
    source = spec.source(**kwargs)
    config = AssistantConfig(nprocs=4)
    program, symbols = stage_frontend(source)
    partition, pcfg, template = stage_partition(program, symbols, config)
    alignment = stage_alignment(partition, pcfg, symbols, template, config)
    spaces = stage_distribution(
        partition, alignment, template, symbols, config
    )
    return partition, spaces, symbols, config


def _costs(result):
    return {
        idx: [est.total for est in estimates]
        for idx, estimates in result.per_phase.items()
    }


@pytest.fixture(scope="module")
def process_pool():
    with WorkerPool(kind="process", max_workers=2) as pool:
        yield pool


@pytest.fixture(scope="module")
def thread_pool():
    with WorkerPool(kind="thread", max_workers=4) as pool:
        yield pool


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_process_pool_costs_bitwise_equal(self, name, process_pool):
        partition, spaces, symbols, config = _estimation_inputs(name)
        db = cached_training_database(IPSC860)
        serial = estimate_search_spaces(
            partition.phases, spaces, symbols, IPSC860, db=db
        )
        pooled = estimate_search_spaces(
            partition.phases, spaces, symbols, IPSC860, db=db,
            job_runner=process_pool.run_jobs,
        )
        assert _costs(pooled) == _costs(serial)

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_thread_pool_costs_bitwise_equal(self, name, thread_pool):
        partition, spaces, symbols, config = _estimation_inputs(name)
        db = cached_training_database(IPSC860)
        serial = estimate_search_spaces(
            partition.phases, spaces, symbols, IPSC860, db=db
        )
        pooled = estimate_search_spaces(
            partition.phases, spaces, symbols, IPSC860, db=db,
            job_runner=thread_pool.run_jobs,
        )
        assert _costs(pooled) == _costs(serial)

    def test_full_run_identical_selection(self, process_pool):
        from repro.tool.assistant import run_assistant

        source = PROGRAMS["adi"].source(n=32, maxiter=2)
        config = AssistantConfig(nprocs=4)
        serial = run_assistant(source, config)
        pooled = run_assistant(
            source, config, job_runner=process_pool.run_jobs
        )
        assert pooled.selection.selection == serial.selection.selection
        assert pooled.selection.objective == serial.selection.objective


def _double(x):
    return x * 2


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


class TestWorkerPoolRobustness:
    def test_serial_kind_runs_in_process(self):
        pool = WorkerPool(kind="serial")
        assert pool.run_jobs(_double, [(1,), (2,), (3,)]) == [2, 4, 6]

    def test_results_keep_submission_order(self, thread_pool):
        args = [(i,) for i in range(50)]
        assert thread_pool.run_jobs(_double, args) == \
            [i * 2 for i in range(50)]

    def test_empty_batch(self, thread_pool):
        assert thread_pool.run_jobs(_double, []) == []

    def test_application_errors_propagate(self, thread_pool):
        with pytest.raises(ZeroDivisionError):
            thread_pool.run_jobs(lambda x: 1 // x, [(0,)])

    def test_job_timeout_raises(self):
        with WorkerPool(kind="thread", max_workers=1,
                        job_timeout=0.05) as pool:
            with pytest.raises(JobTimeoutError):
                pool.run_jobs(_sleepy, [(5.0,)])

    def test_hung_worker_cannot_outlast_the_request_hard_limit(self):
        with WorkerPool(kind="thread", max_workers=1) as pool:
            start = time.perf_counter()
            with deadline_scope(Deadline(30.0, hard_s=0.05)):
                with pytest.raises(RequestTimeout) as err:
                    pool.run_jobs(_sleepy, [(1.0,), (1.0,)])
            assert time.perf_counter() - start < 0.9
        assert err.value.stopped_at == "pool.result"

    def test_pool_rebuilds_after_shutdown(self):
        pool = WorkerPool(kind="thread", max_workers=2)
        assert pool.run_jobs(_double, [(4,)]) == [8]
        pool.shutdown()
        # a fresh executor is built transparently on next use
        assert pool.run_jobs(_double, [(5,)]) == [10]
        pool.shutdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(kind="fiber")

    def test_degrades_to_serial_when_executor_unbuildable(self, monkeypatch):
        import repro.service.pool as pool_mod

        def boom(*args, **kwargs):
            raise OSError("no pools in this sandbox")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(pool_mod, "ThreadPoolExecutor", boom)
        pool = WorkerPool(kind="process")
        assert pool.run_jobs(_double, [(7,)]) == [14]
        assert pool.active_kind == "serial"
        assert pool.degradations >= 1
