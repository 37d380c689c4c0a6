"""Resilience layer: fault injection, deadlines, anytime ILP fallbacks,
circuit breaker + backoff, crash-safe state, and the degraded-response
path end to end through the service."""

from __future__ import annotations

import json
import pickle
import socket
import time

import pytest

from repro.ilp import ZeroOneModel, solve
from repro.ilp.branch_bound import solve as bb_solve
from repro.obs import telemetry, tracing
from repro.resilience import (
    Backoff,
    CircuitBreaker,
    CorruptStateError,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RequestTimeout,
    atomic_write_bytes,
    atomic_write_json,
    checksum_unwrap,
    checksum_wrap,
    checkpoint,
    collecting,
    current_deadline,
    deadline_scope,
    note_degradation,
    quarantine,
    remaining_budget,
    stamp_json_integrity,
    verify_json_integrity,
)
from repro.resilience import faults
from repro.service.cache import StageCache
from repro.service.pool import WorkerPool
from repro.service.protocol import LayoutRequest, answer_of
from repro.service.server import (
    MAX_REQUEST_BYTES,
    LayoutServer,
    LayoutService,
)
from repro.tool.assistant import STAGES, AssistantConfig, run_assistant


# -- fault injection ----------------------------------------------------


class TestFaultInjection:
    def test_unarmed_points_are_noops(self):
        assert faults.active() is None
        faults.fault_point("cache.load")  # must not raise
        assert faults.corrupt_point("cache.load", b"abc") == b"abc"

    def test_error_spec_raises_typed_fault(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec(site="pool.submit")])
        with faults.armed(plan):
            with pytest.raises(InjectedFault) as err:
                faults.fault_point("pool.submit")
        assert err.value.kind == "injected-fault"
        assert "pool.submit" in str(err.value)
        # disarmed again on scope exit
        faults.fault_point("pool.submit")

    def test_flaky_fires_exactly_n_times(self):
        plan = FaultPlan(seed=2, specs=[
            FaultSpec(site="ilp.solve", mode="flaky", times=2),
        ])
        with faults.armed(plan) as injector:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    faults.fault_point("ilp.solve")
            for _ in range(5):
                faults.fault_point("ilp.solve")
            assert injector.fired_count() == 2

    def test_sites_match_fnmatch_patterns(self):
        plan = FaultPlan(seed=3, specs=[FaultSpec(site="cache.*")])
        with faults.armed(plan):
            with pytest.raises(InjectedFault):
                faults.fault_point("cache.store")
        with faults.armed(plan):
            faults.fault_point("pool.submit")  # no match

    def test_probabilistic_firing_is_seed_deterministic(self):
        def firings(seed):
            plan = FaultPlan(seed=seed, specs=[
                FaultSpec(site="service.request", probability=0.5),
            ])
            out = []
            with faults.armed(plan):
                for _ in range(32):
                    try:
                        faults.fault_point("service.request")
                        out.append(0)
                    except InjectedFault:
                        out.append(1)
            return out

        assert firings(7) == firings(7)
        assert firings(7) != firings(8)
        assert 0 < sum(firings(7)) < 32

    def test_corrupt_transform_damages_payload_deterministically(self):
        plan = FaultPlan(seed=4, specs=[
            FaultSpec(site="cache.load", mode="corrupt"),
        ])
        payload = bytes(range(256)) * 8
        with faults.armed(plan):
            first = faults.corrupt_point("cache.load", payload)
        with faults.armed(plan):
            second = faults.corrupt_point("cache.load", payload)
        assert first != payload
        assert first == second

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(seed=11, specs=[
            FaultSpec(site="cache.load", mode="corrupt", probability=0.75),
            FaultSpec(site="pool.result", mode="flaky", times=3),
            FaultSpec(site="ilp.solve", mode="delay", delay_s=0.002),
        ])
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", mode="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="x", mode="flaky")  # times required
        with pytest.raises(ValueError):
            FaultSpec(site="x", probability=1.5)


# -- deadlines ----------------------------------------------------------


class TestDeadline:
    def test_no_scope_means_no_budget(self):
        assert current_deadline() is None
        assert remaining_budget() is None

    def test_scope_installs_and_restores(self):
        deadline = Deadline(60.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            budget = remaining_budget()
            assert budget is not None and 0 < budget <= 60.0
        assert current_deadline() is None

    def test_none_scope_is_transparent(self):
        with deadline_scope(None):
            assert current_deadline() is None

    def test_expiry_and_check(self):
        deadline = Deadline(1e-9)
        assert deadline.expired()
        with deadline_scope(deadline):
            assert remaining_budget() == 0.0
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("selection")
        assert err.value.kind == "deadline"
        assert "selection" in str(err.value)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(1.0, hard_s=0.0)

    def test_checkpoint_is_free_without_a_hard_limit(self):
        checkpoint("nowhere")  # no deadline in scope
        deadline = Deadline(1e-9)
        assert deadline.hard_remaining() is None
        with deadline_scope(deadline):
            checkpoint("soft budget only")

    def test_hard_limit_raises_the_typed_timeout_at_a_checkpoint(self):
        deadline = Deadline(60.0, hard_s=1e-9)
        assert deadline.hard_remaining() == 0.0
        with deadline_scope(deadline):
            with pytest.raises(RequestTimeout) as err:
                checkpoint("stage:alignment")
        assert err.value.kind == "timeout"
        assert err.value.stopped_at == "stage:alignment"
        assert "stage:alignment" in str(err.value)
        # check() is a checkpoint first, a budget test second
        with pytest.raises(RequestTimeout):
            deadline.check("selection.elimination")

    def test_budget_never_outlasts_the_hard_limit(self):
        deadline = Deadline(60.0, hard_s=0.5)
        assert deadline.remaining() <= 0.5
        assert 0.0 < deadline.hard_remaining() <= 0.5

    def test_expiry_is_reported_once_whoever_sees_it(self):
        seen = []

        def sink(type_, attrs):
            seen.append(type_)

        telemetry.install_sink(sink)
        try:
            deadline = Deadline(60.0, hard_s=1e-9)
            for _ in range(3):
                with pytest.raises(RequestTimeout):
                    deadline.checkpoint("pool.result")
            assert deadline.expired()
        finally:
            telemetry.remove_sink(sink)
        assert seen == ["deadline.expired"]


class TestLibraryCheckpoints:
    """The ``stage:*`` checkpoints are ``run_assistant``'s own: any
    caller under a ``deadline_scope`` gets them, not just the service."""

    CONFIG = AssistantConfig(nprocs=4)

    def test_expired_hard_limit_stops_before_the_first_stage(
        self, adi_small_source
    ):
        tracer = tracing.Tracer()
        with tracing.activate(tracer), \
                deadline_scope(Deadline(1.0, hard_s=1e-9)):
            with pytest.raises(RequestTimeout) as err:
                run_assistant(adi_small_source, self.CONFIG)
        assert err.value.stopped_at == "stage:frontend"
        # the checkpoint sits before the stage's span: nothing ran
        assert [s.name for s in tracer.spans] == ["pipeline"]

    def test_every_stage_is_a_checkpoint_in_pipeline_order(
        self, adi_small_source
    ):
        labels = []

        class Recording(Deadline):
            __slots__ = ()

            def checkpoint(self, label):
                labels.append(label)
                super().checkpoint(label)

        with deadline_scope(Recording(60.0, hard_s=120.0)):
            run_assistant(adi_small_source, self.CONFIG)
        assert [l for l in labels if l.startswith("stage:")] == \
            [f"stage:{stage}" for stage in STAGES]

    def test_a_deadline_in_scope_does_not_change_the_result(
        self, adi_small_source, adi_assistant
    ):
        with deadline_scope(Deadline(60.0, hard_s=120.0)):
            timed = run_assistant(adi_small_source, self.CONFIG)
        assert answer_of(timed) == answer_of(adi_assistant)
        assert timed.selection.selection == adi_assistant.selection.selection
        assert timed.estimates.per_phase == adi_assistant.estimates.per_phase


# -- backoff and circuit breaker ---------------------------------------


class TestBackoff:
    def test_zero_base_disables_waiting(self):
        sleeps = []
        backoff = Backoff(base_s=0.0, sleep=sleeps.append)
        assert backoff.delay(0) == 0.0
        assert backoff.wait(3) == 0.0
        assert sleeps == []

    def test_delays_grow_exponentially_and_cap(self):
        backoff = Backoff(base_s=0.1, factor=2.0, max_s=0.5, jitter=0.0,
                          sleep=lambda _s: None)
        assert backoff.delay(0) == pytest.approx(0.1)
        assert backoff.delay(1) == pytest.approx(0.2)
        assert backoff.delay(10) == pytest.approx(0.5)  # capped

    def test_jitter_is_seed_deterministic_and_bounded(self):
        a = Backoff(base_s=0.1, jitter=0.5, seed=9, sleep=lambda _s: None)
        b = Backoff(base_s=0.1, jitter=0.5, seed=9, sleep=lambda _s: None)
        da = [a.delay(k) for k in range(6)]
        db = [b.delay(k) for k in range(6)]
        assert da == db
        for k, d in enumerate(da):
            raw = min(0.1 * 2.0 ** k, 2.0)
            assert raw * 0.5 <= d <= raw

    def test_wait_uses_injected_sleep(self):
        sleeps = []
        backoff = Backoff(base_s=0.25, jitter=0.0, sleep=sleeps.append)
        backoff.wait(0)
        assert sleeps == [pytest.approx(0.25)]


class TestCircuitBreaker:
    def make(self, **kw):
        self.now = 0.0
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout_s", 10.0)
        return CircuitBreaker(name="t", clock=lambda: self.now, **kw)

    def test_trips_after_consecutive_failures(self):
        breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens_total == 1
        assert not breaker.allow()
        assert breaker.rejections_total == 1

    def test_success_resets_the_failure_run(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        self.now = 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # probe budget spent
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        self.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens_total == 2
        # a fresh reset timeout applies from the re-trip
        self.now = 15.0
        assert breaker.state == "open"
        self.now = 20.0
        assert breaker.state == "half-open"

    def test_describe_feeds_the_gauges(self):
        breaker = self.make()
        breaker.record_failure()
        desc = breaker.describe()
        assert desc["name"] == "t"
        assert desc["state"] == "closed"
        assert desc["consecutive_failures"] == 1
        assert desc["opens_total"] == 0


# -- crash-safe persistent state ----------------------------------------


class TestAtomicState:
    def test_atomic_write_replaces_without_temp_residue(self, tmp_path):
        path = tmp_path / "state.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_checksum_round_trip(self):
        payload = b"the payload" * 100
        assert checksum_unwrap(checksum_wrap(payload)) == payload

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],          # truncation
        lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),  # digest flip
        lambda blob: blob[:5] + bytes([blob[5] ^ 0x40]) + blob[6:],
        lambda blob: b"\x00" * 10,                    # too short
        lambda blob: blob[: -41] + b"X" + blob[-40:],  # magic shifted
    ])
    def test_any_damage_raises_corrupt_state(self, damage):
        blob = checksum_wrap(pickle.dumps({"k": list(range(50))}))
        with pytest.raises(CorruptStateError):
            checksum_unwrap(damage(blob), label="entry")

    def test_json_integrity_stamp_and_verify(self):
        stamped = stamp_json_integrity({"a": 1, "b": [2, 3]})
        assert verify_json_integrity(stamped) is True
        # absent stamp: tolerated (hand-edited files drop it)
        assert verify_json_integrity({"a": 1}) is False
        stamped["a"] = 2
        with pytest.raises(CorruptStateError):
            verify_json_integrity(stamped, label="bench")

    def test_json_integrity_ignores_key_order(self):
        stamped = stamp_json_integrity({"a": 1, "b": 2})
        reordered = {k: stamped[k] for k in reversed(list(stamped))}
        assert verify_json_integrity(reordered) is True

    def test_quarantine_renames_and_numbers(self, tmp_path):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"bad")
        moved = quarantine(path)
        assert moved is not None and moved.name == "entry.pkl.quarantined"
        assert not path.exists()
        path.write_bytes(b"bad again")
        second = quarantine(path)
        assert second is not None
        assert second.name == "entry.pkl.quarantined.1"

    def test_quarantine_of_missing_file_is_none(self, tmp_path):
        assert quarantine(tmp_path / "ghost.pkl") is None

    def test_atomic_write_json_is_loadable(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}


# -- cache corruption and breaker (satellite d) -------------------------


class TestCacheCorruption:
    def seeded(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        cache.store("alignment", "k" * 64, {"value": 42})
        cache.clear_memory()
        return cache, tmp_path / "alignment" / ("k" * 64 + ".pkl")

    def test_disk_round_trip(self, tmp_path):
        cache, _path = self.seeded(tmp_path)
        hit, value = cache.load("alignment", "k" * 64)
        assert hit and value == {"value": 42}

    def test_truncated_entry_is_miss_plus_quarantine(self, tmp_path):
        cache, path = self.seeded(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        hit, value = cache.load("alignment", "k" * 64)
        assert (hit, value) == (False, None)
        assert cache.quarantined_total == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

    def test_bad_checksum_is_miss_plus_quarantine(self, tmp_path):
        cache, path = self.seeded(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[3] ^= 0xFF  # flip a payload bit; the footer digest catches it
        path.write_bytes(bytes(blob))
        assert cache.load("alignment", "k" * 64) == (False, None)
        assert cache.quarantined_total == 1

    def test_foreign_garbage_is_miss_plus_quarantine(self, tmp_path):
        cache, path = self.seeded(tmp_path)
        path.write_bytes(b"not a cache entry at all")
        assert cache.load("alignment", "k" * 64) == (False, None)
        assert cache.quarantined_total == 1

    def test_unreadable_disk_is_miss_and_breaker_failure(self, tmp_path):
        cache, _path = self.seeded(tmp_path)
        plan = FaultPlan(seed=5, specs=[FaultSpec(site="cache.load")])
        with faults.armed(plan):
            assert cache.load("alignment", "k" * 64) == (False, None)
        assert cache.quarantined_total == 0  # disk fault, not data rot
        assert cache.breaker.describe()["consecutive_failures"] == 1
        # healthy again once the fault clears
        hit, value = cache.load("alignment", "k" * 64)
        assert hit and value == {"value": 42}

    def test_corrupted_store_is_caught_on_load(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        plan = FaultPlan(seed=6, specs=[
            FaultSpec(site="cache.store", mode="corrupt"),
        ])
        with faults.armed(plan):
            cache.store("selection", "s" * 64, {"value": 1})
        cache.clear_memory()
        assert cache.load("selection", "s" * 64) == (False, None)
        assert cache.quarantined_total == 1

    def test_breaker_opens_after_fault_run_then_memory_only(self, tmp_path):
        cache, _path = self.seeded(tmp_path)
        plan = FaultPlan(seed=7, specs=[FaultSpec(site="cache.load")])
        with faults.armed(plan):
            for _ in range(cache.breaker.failure_threshold):
                assert cache.load("alignment", "k" * 64) == (False, None)
        assert cache.breaker.state == "open"
        # the entry is on disk and intact, but the open breaker keeps
        # the cache memory-only until the reset timeout
        assert cache.load("alignment", "k" * 64) == (False, None)
        cache.breaker.reset()
        hit, _value = cache.load("alignment", "k" * 64)
        assert hit

    def test_store_fault_degrades_to_memory_only(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        plan = FaultPlan(seed=8, specs=[FaultSpec(site="cache.store")])
        with faults.armed(plan):
            cache.store("frontend", "f" * 64, "program")
        # memory still serves it; disk never saw it
        assert cache.load("frontend", "f" * 64) == (True, "program")
        assert cache.entry_count() == {}


# -- worker pool retries, backoff, breaker ------------------------------


def _square(x):
    return x * x


class TestPoolResilience:
    def test_flaky_result_is_absorbed_by_retry(self):
        plan = FaultPlan(seed=9, specs=[
            FaultSpec(site="pool.result", mode="flaky", times=1),
        ])
        with WorkerPool(kind="thread", max_workers=2, retries=2) as pool:
            with faults.armed(plan):
                results = pool.run_jobs(_square, [(i,) for i in range(6)])
        assert results == [i * i for i in range(6)]

    def test_retry_waits_on_the_injected_backoff(self):
        sleeps = []
        backoff = Backoff(base_s=0.1, jitter=0.0, sleep=sleeps.append)
        plan = FaultPlan(seed=10, specs=[
            FaultSpec(site="pool.result", mode="flaky", times=1),
        ])
        with WorkerPool(kind="thread", max_workers=2, retries=2,
                        backoff=backoff) as pool:
            with faults.armed(plan):
                results = pool.run_jobs(_square, [(3,), (4,)])
        assert results == [9, 16]
        assert sleeps and sleeps[0] == pytest.approx(0.1)

    def test_submit_fault_run_opens_breaker_and_goes_serial(self):
        breaker = CircuitBreaker(name="worker-pool", failure_threshold=1,
                                 reset_timeout_s=60.0)
        plan = FaultPlan(seed=11, specs=[FaultSpec(site="pool.submit")])
        with WorkerPool(kind="thread", max_workers=2,
                        breaker=breaker) as pool:
            with faults.armed(plan):
                assert pool.run_jobs(_square, [(2,), (5,)]) == [4, 25]
            assert breaker.state == "open"
            # breaker open: the batch runs serially, correctly, without
            # touching the executor (pool.submit would fault again)
            with faults.armed(plan):
                assert pool.run_jobs(_square, [(6,)]) == [36]

    def test_default_backoff_never_sleeps(self):
        pool = WorkerPool(kind="serial")
        assert pool.backoff.base_s == 0.0
        assert pool.describe()["backoff"]["base_s"] == 0.0


# -- anytime ILP --------------------------------------------------------


def _toy_model(n=8):
    model = ZeroOneModel(name="toy", sense="max")
    for i in range(n):
        model.add_var(f"x{i}")
        model.set_objective({f"x{i}": float(i + 1)})
    model.add_constraint(
        {f"x{i}": 1.0 for i in range(n)}, "<=", float(n // 2)
    )
    return model


class TestAnytimeILP:
    @pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
    def test_zero_budget_returns_unknown(self, backend):
        solution = solve(_toy_model(), backend=backend, time_limit=0.0)
        assert solution.status == "unknown"
        assert not solution.has_incumbent
        assert not solution.is_optimal

    @pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
    def test_expired_deadline_clamps_the_solve(self, backend):
        with deadline_scope(Deadline(1e-9)):
            solution = solve(_toy_model(), backend=backend)
        assert solution.status == "unknown"

    def test_generous_deadline_still_proves_optimality(self):
        with deadline_scope(Deadline(60.0)):
            solution = solve(_toy_model(), backend="branch-bound")
        assert solution.status == "optimal"
        assert solution.has_incumbent

    def test_node_limit_incumbent_is_labeled(self):
        solution = bb_solve(_toy_model(n=16), node_limit=3)
        assert solution.status in ("node_limit", "unknown")
        if solution.has_incumbent:
            assert not solution.is_optimal

    def test_ilp_solve_fault_site(self):
        plan = FaultPlan(seed=12, specs=[FaultSpec(site="ilp.solve")])
        with faults.armed(plan):
            with pytest.raises(InjectedFault):
                solve(_toy_model())


class TestFirstSolveImport:
    """A backend is imported when a model first reaches it, and that
    import is paid out of the solve's own deadline."""

    @staticmethod
    def slow_loader(monkeypatch, sleep_s):
        """Backends load ``sleep_s`` late, as a cold HiGHS import does;
        returns the ``time_limit`` each solve is then handed."""
        import repro.ilp as ilp

        load, limits = ilp._load_backend, []

        def slow(backend):
            time.sleep(sleep_s)
            fn = load(backend)

            def recording(model, time_limit=None):
                limits.append(time_limit)
                return fn(model, time_limit=time_limit)

            return recording

        monkeypatch.setattr(ilp, "_load_backend", slow)
        return limits

    @pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
    def test_the_import_comes_out_of_the_budget(self, monkeypatch, backend):
        limits = self.slow_loader(monkeypatch, 0.2)
        with deadline_scope(Deadline(30.0)):
            solution = solve(_toy_model(), backend=backend)
        assert solution.status == "optimal"
        (limit,) = limits
        assert limit <= 30.0 - 0.2

    def test_a_loader_past_the_hard_limit_stops_at_the_checkpoint(
        self, monkeypatch
    ):
        limits = self.slow_loader(monkeypatch, 0.1)
        with deadline_scope(Deadline(0.05, hard_s=0.05)):
            with pytest.raises(RequestTimeout) as err:
                solve(_toy_model())
        assert err.value.stopped_at == "ilp.solve"
        assert limits == []  # no solve started late

    def test_a_loader_past_the_budget_degrades(self, monkeypatch):
        from repro.alignment.cag import CAG
        from repro.alignment.ilp import resolve_conflicts

        cag = CAG()
        cag.add_array("x", 2)
        cag.add_array("y", 2)
        cag.add_undirected_edge(("x", 0), ("y", 0), 10.0)
        cag.add_undirected_edge(("x", 1), ("y", 0), 4.0)
        cag.add_undirected_edge(("x", 1), ("y", 1), 10.0)
        limits = self.slow_loader(monkeypatch, 0.1)
        with collecting() as events:
            with deadline_scope(Deadline(0.05)):
                res = resolve_conflicts(cag, d=2, presolve=False)
        assert limits == [0.0]  # the solve was handed no time
        assert res.optimal is False
        assert [(e.stage, e.reason) for e in events] == [
            ("alignment", "greedy-fallback")
        ]


# -- greedy fallbacks under expired deadlines ---------------------------


class TestGreedyFallbacks:
    def test_alignment_falls_back_and_notes_degradation(self):
        from repro.alignment.cag import CAG
        from repro.alignment.ilp import resolve_conflicts

        cag = CAG()
        cag.add_array("x", 2)
        cag.add_array("y", 2)
        cag.add_undirected_edge(("x", 0), ("y", 0), 10.0)
        cag.add_undirected_edge(("x", 1), ("y", 0), 4.0)
        cag.add_undirected_edge(("x", 1), ("y", 1), 10.0)

        with collecting() as events:
            with deadline_scope(Deadline(1e-9)):
                res = resolve_conflicts(cag, d=2)
        assert res.optimal is False
        assert not res.resolved.has_conflict()
        # a full assignment, one axis per node, type-2 safe
        assert set(res.assignment) == set(cag.nodes)
        assert len({res.assignment[("x", 0)], res.assignment[("x", 1)]}) == 2
        assert [e.stage for e in events] == ["alignment"]
        assert events[0].reason in ("greedy-fallback", "incumbent")

    def test_selection_falls_back_and_notes_degradation(self):
        from repro.selection import select_layouts
        from repro.selection.layout_graph import DataLayoutGraph, LayoutEdge

        graph = DataLayoutGraph(
            phases=[], pcfg=None, estimates=None,
            node_costs={0: [5.0, 1.0], 1: [2.0, 2.0]},
            edges=[LayoutEdge(src_phase=0, dst_phase=1, costs={
                (0, 0): 0.0, (0, 1): 3.0, (1, 0): 3.0, (1, 1): 0.0,
            })],
            transitions={},
        )
        with collecting() as events:
            with deadline_scope(Deadline(1e-9)):
                result = select_layouts(graph)
        assert result.optimal is False
        assert set(result.selection) == {0, 1}
        # the greedy answer is evaluated with the shared evaluator
        assert result.objective == pytest.approx(
            graph.evaluate(result.selection)
        )
        assert [e.stage for e in events] == ["selection"]

    def test_without_deadline_both_stay_optimal(self):
        from repro.selection import select_layouts
        from repro.selection.layout_graph import DataLayoutGraph

        graph = DataLayoutGraph(
            phases=[], pcfg=None, estimates=None,
            node_costs={0: [5.0, 1.0]}, edges=[], transitions={},
        )
        with collecting() as events:
            result = select_layouts(graph)
        assert result.optimal is True
        assert result.selection == {0: 1}
        assert events == []


# -- degradation accounting --------------------------------------------


class TestDegradationAccounting:
    def test_notes_collect_in_scope_only(self):
        from repro.resilience.degrade import noted_count

        assert noted_count() == 0
        with collecting() as events:
            note_degradation("alignment", "greedy-fallback", "test")
            assert noted_count() == 1
        assert noted_count() == 0
        assert events[0].to_dict() == {
            "stage": "alignment", "reason": "greedy-fallback",
            "detail": "test",
        }

    def test_note_lands_in_active_trace(self):
        from repro.obs import tracing
        from repro.obs.events import iter_events

        tracer = tracing.Tracer(name="t")
        with tracing.activate(tracer):
            with tracing.span("work"):
                note_degradation("selection", "incumbent")
        hits = list(iter_events(tracer.to_dict(), "resilience.degraded"))
        assert len(hits) == 1
        attrs = hits[0][1]["attrs"]
        assert attrs["optimal"] is False
        assert attrs["stage"] == "selection"


# -- the service end to end ---------------------------------------------


REQUEST = {
    "op": "analyze",
    "program": "adi",
    "size": 32,
    "maxiter": 2,
    "procs": 4,
}


class TestServiceDegradedPath:
    def test_expired_deadline_yields_labeled_degraded_response(
        self, tmp_path
    ):
        with LayoutService(
            cache_dir=str(tmp_path),
            pool=WorkerPool(kind="thread", max_workers=2),
        ) as service:
            degraded = service.handle(
                dict(REQUEST, deadline_s=1e-6, request_id="d1")
            )
            assert degraded["ok"]
            assert degraded["degraded"] is True
            stages = {d["stage"] for d in degraded["degradations"]}
            assert "selection" in stages
            assert degraded["layouts"]  # usable answer, just not certified

            # degraded stage outputs were not cached: a follow-up with a
            # full budget recomputes and certifies
            full = service.handle(dict(REQUEST, request_id="d2"))
            assert full["ok"] and full["degraded"] is False
            assert full["predicted_total_us"] > 0

            stats = service.stats()
            assert stats["counters"]["requests_degraded"] == 1
            text = service.prometheus()
            assert "repro_degraded_total 1" in text
            assert 'repro_breaker_state{breaker="cache-disk"} 0' in text
            assert 'repro_breaker_state{breaker="worker-pool"} 0' in text

    def test_degraded_provenance_reports_optimal_false(self, tmp_path):
        from repro.obs.provenance import build_provenance, format_provenance

        with LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2),
        ) as service:
            response = service.analyze(LayoutRequest.from_dict(
                dict(REQUEST, deadline_s=1e-6, trace=True)
            ))
        assert response.ok and response.degraded
        report = build_provenance(response.trace)
        assert report["optimal"] is False
        assert report["degradations"]
        rendered = format_provenance(report)
        assert "DEGRADED result" in rendered

        # the fault-free control: optimal provenance
        with LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2),
        ) as service:
            control = service.analyze(
                LayoutRequest.from_dict(dict(REQUEST, trace=True))
            )
        assert control.ok and not control.degraded
        assert build_provenance(control.trace)["optimal"] is True

    def test_service_request_fault_returns_typed_error(self):
        plan = FaultPlan(seed=13, specs=[
            FaultSpec(site="service.request"),
        ])
        with LayoutService(pool=WorkerPool(kind="serial")) as service:
            with faults.armed(plan):
                response = service.handle({"op": "ping"})
            counters = service.stats()["counters"]
        assert response["ok"] is False
        assert response["error_kind"] == "injected-fault"
        assert counters["requests_failed"] == counters["requests_total"] == 1

    def test_deadline_validation(self):
        from repro.service.errors import RequestValidationError

        with pytest.raises(RequestValidationError):
            LayoutRequest.from_dict(dict(REQUEST, deadline_s=-1))
        with pytest.raises(RequestValidationError):
            LayoutRequest.from_dict(dict(REQUEST, deadline_s="soon"))


class TestRequestSizeCap:
    def test_oversized_line_gets_typed_refusal(self, tmp_path):
        service = LayoutService(pool=WorkerPool(kind="serial"))
        server = LayoutServer(("127.0.0.1", 0), service)
        server.serve_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                sock.sendall(b'{"op": "ping", "pad": "' )
                sock.sendall(b"a" * (MAX_REQUEST_BYTES + 16))
                sock.sendall(b'"}\n')
                line = sock.makefile("rb").readline()
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error_kind"] == "request-too-large"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
