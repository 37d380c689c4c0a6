"""The three-tier request path: the answer key from memoised parts, a
hit that takes no ticket, a duplicate that joins the compute in flight,
a drain that waits for both — and where a miss is computed: on the
request's own thread, unless a pool was handed in."""

from __future__ import annotations

import multiprocessing
import signal
import sys
import threading
import time
from dataclasses import asdict

import pytest

from repro.machine.params import MACHINES
from repro.perf import estimator as estimator_module
from repro.programs.registry import PROGRAMS
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service import pool as pool_module, protocol
from repro.service.cache import StageKeys
from repro.service.pool import WorkerPool
from repro.service.protocol import LayoutRequest
from repro.service.server import LayoutServer, LayoutService
from repro.tool import assistant as assistant_module, cli
from repro.tool.assistant import stage_partition
from repro.tool.top import format_top

from .helpers import counter

REQUEST = {
    "op": "analyze",
    "program": "adi",
    "size": 16,
    "maxiter": 2,
    "procs": 4,
}

#: every wait in this file gives up after this long
PATIENCE_S = 30


@pytest.fixture()
def service(tmp_path):
    with LayoutService(cache_dir=str(tmp_path / "cache"),
                       pool=WorkerPool(kind="serial")) as svc:
        yield svc


def _admitted(service) -> int:
    return service.admission.describe()["counters"]["admitted"]


def _answer(resp: dict) -> tuple:
    return resp["layouts"], resp["predicted_total_us"], resp["is_dynamic"]


def _wait_until(condition) -> None:
    give_up = time.monotonic() + PATIENCE_S
    while not condition():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.001)


def _tiers(service) -> list:
    return [
        e["attrs"]["tier"]
        for e in service.telemetry.events.tail(type="service.request")
        if e["attrs"]["op"] == "analyze"
    ]


class HeldLeader:
    """``stage_partition``, whose first caller waits to be let go (and
    then, if told to, fails); later callers pass straight through."""

    def __init__(self, monkeypatch, fail: bool = False):
        self.entered = threading.Event()
        self.proceed = threading.Event()
        self._fail = fail
        self._first = threading.Lock()
        monkeypatch.setattr(assistant_module, "stage_partition", self)

    def __call__(self, *args):
        if self._first.acquire(blocking=False):
            self.entered.set()
            assert self.proceed.wait(timeout=PATIENCE_S)
            if self._fail:
                raise RuntimeError("the leader's stage failed")
        return stage_partition(*args)


def _in_background(service, payload):
    replies = []
    thread = threading.Thread(
        target=lambda: replies.append(service.handle(dict(payload)))
    )
    thread.start()
    return thread, replies


def _finish(*threads) -> None:
    for thread in threads:
        thread.join(timeout=PATIENCE_S)
        assert not thread.is_alive()


def _second_miss_seen(service):
    """The follower looked the key up and missed: the next thing it does
    is find its leader in the join table."""
    def seen() -> bool:
        per_stage = service.metrics.snapshot()["cache"]["per_stage"]
        return per_stage.get("answer", {}).get("misses", 0) >= 2
    return seen


class TestMemoisedKey:
    @pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
    @pytest.mark.parametrize("by_name", [True, False])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_key_is_the_stage_keys_answer(self, program, by_name, backend):
        machine = "paragon" if by_name else asdict(MACHINES["paragon"])
        for size in (None, 24, 40):
            for procs in (2, 8):
                payload = {
                    "program": program, "procs": procs, "maxiter": 2,
                    "machine": machine, "backend": backend,
                }
                if size is not None:
                    payload["size"] = size
                request = LayoutRequest.from_dict(payload)
                assert request.answer_key() == StageKeys(
                    request.resolve_source(), request.resolve_config()
                ).answer
                # from the memo the second time, and still the same
                assert request.answer_key() == LayoutRequest.from_dict(
                    payload
                ).answer_key()

    def test_raw_source_requests_key_on_their_text(self):
        source = PROGRAMS["adi"].source(n=16, maxiter=2)
        by_text = LayoutRequest.from_dict({"source": source, "procs": 4})
        by_name = LayoutRequest.from_dict(dict(REQUEST))
        assert by_text.answer_key() == by_name.answer_key()
        assert by_text.answer_key() != LayoutRequest.from_dict(
            {"source": source + "\n", "procs": 4}
        ).answer_key()

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_maxiter_matters_only_with_a_time_loop(self, program):
        keys = {
            LayoutRequest.from_dict(
                {"program": program, "procs": 4, "maxiter": maxiter}
            ).answer_key()
            for maxiter in (2, 3)
        }
        assert len(keys) == (2 if PROGRAMS[program].has_time_loop else 1)

    def test_a_mutated_config_changes_no_other_requests_key(self):
        request = LayoutRequest.from_dict(dict(REQUEST))
        before = request.answer_key()
        config = request.resolve_config()
        config.nprocs = 64
        config.ilp_backend = "branch-bound"
        config.machine = MACHINES["paragon"]
        other = LayoutRequest.from_dict(dict(REQUEST))
        assert other.answer_key() == before
        fresh = other.resolve_config()
        assert fresh is not config and fresh.nprocs == 4
        assert StageKeys(other.resolve_source(), fresh).answer == before

    def test_both_memos_are_bounded(self):
        for memo in (protocol._program_source, protocol._config_key):
            assert 0 < memo.cache_info().maxsize <= 512


class TestAnswerTier:
    def test_hits_take_no_ticket_and_teach_the_limiter_nothing(
        self, service
    ):
        cold = service.handle(dict(REQUEST))
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 7
        floor = service.admission.limiter.describe()["baseline_s"]
        # the floor is one compute: at least the six stages it ran
        assert floor >= sum(
            t["seconds"] for t in cold["stage_timings"][1:]
        )
        for _ in range(20):
            hit = service.handle(dict(REQUEST))
            assert hit["ok"] and not hit["degraded"]
            assert [(t["stage"], t["cache_hit"])
                    for t in hit["stage_timings"]] == [("answer", True)]
            assert hit["cache_hits"] == 1 and hit["cache_misses"] == 0
            assert _answer(hit) == _answer(cold)
        described = service.admission.describe()
        assert described["counters"]["admitted"] == 1
        assert described["in_flight"] == described["in_progress"] == 0
        assert described["limiter"]["baseline_s"] == floor
        stats = service.stats()
        assert stats["counters"]["requests_ok"] == 21
        assert stats["stage_seconds"]["answer"]["count"] == 21
        assert stats["stage_seconds"]["request"]["count"] == 21
        assert stats["cache"]["per_stage"]["answer"] == \
            {"hits": 20, "misses": 1}
        assert stats["window"]["ops"]["analyze"]["full"]["count"] == 21
        assert _tiers(service) == ["compute"] + ["answer"] * 20

    def test_a_hit_is_served_however_short_the_request_timeout(
        self, service
    ):
        cold = service.handle(dict(REQUEST))
        service.request_timeout = 1e-9
        assert _answer(service.handle(dict(REQUEST))) == _answer(cold)
        fresh = service.handle(dict(REQUEST, size=24))
        assert fresh["error_kind"] == "timeout"

    def test_a_traced_hit_is_offered_to_the_sampler_an_untraced_is_not(
        self, service
    ):
        service.handle(dict(REQUEST))
        def offered() -> int:
            described = service.telemetry.sampler.describe()
            return described["kept_total"] + described["dropped_total"]

        assert offered() == 1
        service.handle(dict(REQUEST))
        assert offered() == 1
        traced = service.handle(dict(REQUEST, trace=True))
        assert offered() == 2
        assert [s["name"] for s in traced["trace"]["spans"]] == \
            ["service.stage"]

    def test_draining_refuses_a_primed_request(self, service):
        assert service.handle(dict(REQUEST))["ok"]
        service.begin_drain()
        resp = service.handle(dict(REQUEST))
        assert not resp["ok"]
        assert resp["error_kind"] == "shutting-down"
        counters = service.admission.describe()["counters"]
        assert counters["rejected_draining"] == 1

    def test_no_cache_requests_are_admitted_and_never_join(
        self, service, monkeypatch
    ):
        held = HeldLeader(monkeypatch)
        leader, led = _in_background(service, REQUEST)
        try:
            assert held.entered.wait(timeout=PATIENCE_S)
            # the same request, uncached, while its twin is computing
            aside = service.handle(dict(REQUEST, use_cache=False))
            assert aside["ok"]
            assert aside["cache_hits"] == 0 and aside["cache_misses"] == 6
            assert _admitted(service) == 2
        finally:
            held.proceed.set()
            _finish(leader)
        assert _answer(led[0]) == _answer(aside)
        assert counter(service.metrics, "requests_joined") == 0
        # primed now, and still admitted every time it is asked
        service.handle(dict(REQUEST, use_cache=False))
        assert _admitted(service) == 3
        assert _tiers(service) == ["compute"] * 3


class TestJoinTier:
    def test_a_duplicate_joins_the_compute_in_flight(
        self, service, monkeypatch
    ):
        held = HeldLeader(monkeypatch)
        leader, led = _in_background(service, REQUEST)
        assert held.entered.wait(timeout=PATIENCE_S)
        follower, followed = _in_background(service, REQUEST)
        try:
            _wait_until(_second_miss_seen(service))
        finally:
            held.proceed.set()
            _finish(leader, follower)
        assert led[0]["ok"] and followed[0]["ok"]
        assert _answer(led[0]) == _answer(followed[0])
        # one compute: one ticket, one set of stage observations
        assert _admitted(service) == 1
        stats = service.stats()
        assert stats["stage_seconds"]["frontend"]["count"] == 1
        assert stats["counters"]["requests_joined"] == 1
        assert led[0]["cache_hits"] == 0 and led[0]["cache_misses"] == 7
        # the follower's reply is a hit's
        assert followed[0]["cache_hits"] == 1
        assert followed[0]["cache_misses"] == 0
        assert [t["stage"] for t in followed[0]["stage_timings"]] == \
            ["answer"]
        assert sorted(_tiers(service)) == ["compute", "join"]
        assert not service._leaders

    def test_a_follower_times_out_at_the_join(self, tmp_path, monkeypatch):
        timeout = 0.2
        held = HeldLeader(monkeypatch)
        with LayoutService(cache_dir=str(tmp_path / "cache"),
                           pool=WorkerPool(kind="serial"),
                           request_timeout=timeout) as service:
            leader, _ = _in_background(service, REQUEST)
            try:
                assert held.entered.wait(timeout=PATIENCE_S)
                start = time.perf_counter()
                resp = service.handle(
                    dict(REQUEST, request_id="behind")
                )
                seconds = time.perf_counter() - start
            finally:
                held.proceed.set()
                _finish(leader)
            assert not resp["ok"]
            assert resp["error_kind"] == "timeout"
            assert "stopped at join" in resp["error"]
            assert seconds <= 2 * timeout + 0.05
            event = next(
                e for e in service.telemetry.events.tail(
                    type="service.request")
                if e["attrs"].get("request_id") == "behind"
            )
            assert event["attrs"]["stopped_at"] == "join"
            assert event["attrs"]["tier"] == "join"
            assert counter(service.metrics, "requests_timeout") >= 1
            # it held no ticket, so its timeout is no congestion signal
            assert _admitted(service) == 1

    def test_a_failed_leader_leaves_its_follower_to_compute(
        self, service, monkeypatch
    ):
        held = HeldLeader(monkeypatch, fail=True)
        leader, led = _in_background(service, REQUEST)
        assert held.entered.wait(timeout=PATIENCE_S)
        follower, followed = _in_background(service, REQUEST)
        try:
            _wait_until(_second_miss_seen(service))
        finally:
            held.proceed.set()
            _finish(leader, follower)
        assert not led[0]["ok"] and led[0]["error_kind"] == "internal"
        assert followed[0]["ok"] and not followed[0]["degraded"]
        # its own compute, once: a second miss, then the six stages
        assert followed[0]["cache_hits"] == 0
        assert followed[0]["cache_misses"] == 7
        assert _admitted(service) == 2
        assert counter(service.metrics, "requests_joined") == 0
        assert not service._leaders
        # and what it stored serves the next one
        assert service.handle(dict(REQUEST))["cache_hits"] == 1

    def test_a_degraded_leader_stores_nothing_for_its_follower(
        self, service, monkeypatch
    ):
        request = dict(REQUEST, program="tomcatv", size=128)
        held = HeldLeader(monkeypatch)
        # its budget runs out while it is held: greedy fallbacks
        leader, led = _in_background(
            service, dict(request, deadline_s=0.01)
        )
        assert held.entered.wait(timeout=PATIENCE_S)
        follower, followed = _in_background(service, request)
        try:
            _wait_until(_second_miss_seen(service))
        finally:
            held.proceed.set()
            _finish(leader, follower)
        assert led[0]["ok"] and led[0]["degraded"]
        assert followed[0]["ok"] and not followed[0]["degraded"]
        assert followed[0]["cache_hits"] == 0
        assert _admitted(service) == 2
        exact = service.handle(dict(request))
        assert exact["cache_hits"] == 1 and not exact["degraded"]
        assert _answer(exact) == _answer(followed[0])

    def test_many_duplicates_at_once_compute_once(self, service):
        """More threads than cores on one fresh key, switching often: no
        entry of the join table is lost or left behind."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            started = [_in_background(service, REQUEST) for _ in range(8)]
            _finish(*(thread for thread, _ in started))
        finally:
            sys.setswitchinterval(interval)
        replies = [replies[0] for _, replies in started]
        assert all(r["ok"] and not r["degraded"] for r in replies)
        assert len({repr(_answer(r)) for r in replies}) == 1
        assert _admitted(service) == 1
        assert sum(r["cache_misses"] == 7 for r in replies) == 1
        assert not service._leaders
        described = service.admission.describe()
        assert described["in_flight"] == described["in_progress"] == 0


class TestDrainCoversTicketlessRequests:
    def test_drain_waits_for_a_hit_mid_reply(self, service):
        assert service.handle(dict(REQUEST))["ok"]
        entered, proceed = threading.Event(), threading.Event()
        load = service.cache.load

        def held_load(stage, key):
            entered.set()
            assert proceed.wait(timeout=PATIENCE_S)
            return load(stage, key)

        service.cache.load = held_load
        hit, replies = _in_background(service, REQUEST)
        try:
            assert entered.wait(timeout=PATIENCE_S)
            assert service.admission.describe()["in_flight"] == 0
            report = service.drain(deadline_s=0.05)
            assert report["drained"] is False
            assert report["in_flight"] == 1
        finally:
            proceed.set()
            _finish(hit)
        # it was in progress when the drain began, so it is served
        assert replies[0]["ok"] and replies[0]["cache_hits"] == 1
        report = service.drain(deadline_s=PATIENCE_S)
        assert report["drained"] is True and report["in_flight"] == 0

    def test_drain_waits_for_a_follower(self, service, monkeypatch):
        held = HeldLeader(monkeypatch)
        leader, _ = _in_background(service, REQUEST)
        assert held.entered.wait(timeout=PATIENCE_S)
        follower, followed = _in_background(service, REQUEST)
        try:
            _wait_until(_second_miss_seen(service))
            report = service.drain(deadline_s=0.05)
            assert report["drained"] is False
            assert report["in_flight"] == 2
        finally:
            held.proceed.set()
            _finish(leader, follower)
        assert followed[0]["ok"] and followed[0]["cache_hits"] == 1
        assert service.drain(deadline_s=PATIENCE_S)["drained"] is True


class TestServiceOpenShapedMix:
    def test_defaults_return_no_degraded_reply(self, tmp_path):
        """What ``service-open`` sends — hits between sequential fresh
        requests, and one duplicate pair at once — against default
        admission and the default brownout budget."""
        replies, fresh = [], []
        with LayoutService(cache_dir=str(tmp_path / "cache"),
                           pool=WorkerPool(kind="serial")) as service:
            primed = [dict(REQUEST, size=size) for size in (16, 20)]
            for payload in primed:
                fresh.append(service.handle(dict(payload)))
            for size in range(24, 48, 4):
                for payload in primed + primed[:1]:
                    replies.append(service.handle(dict(payload)))
                fresh.append(
                    service.handle(dict(REQUEST, size=size))
                )
            pair = [
                _in_background(service, dict(REQUEST, size=48))
                for _ in range(2)
            ]
            _finish(*(thread for thread, _ in pair))
            replies += fresh + [r[0] for _, r in pair]
            admission = service.admission.describe()
            joined = counter(service.metrics, "requests_joined")
        assert all(r["ok"] for r in replies)
        assert not any(r["degraded"] for r in replies)
        # one ticket per distinct fresh request, none for the rest
        assert admission["counters"]["admitted"] == len(fresh) + 1
        assert admission["shed_total"] == 0
        pair_hits = sum(r[0]["cache_hits"] for _, r in pair)
        assert pair_hits == 1 and joined <= 1
        # the limiter's floor is a compute's time, not a hit's
        fastest = min(
            sum(t["seconds"] for t in r["stage_timings"][1:])
            for r in fresh
        )
        assert admission["limiter"]["baseline_s"] >= fastest


def _spans(reply: dict, prefix: str) -> list:
    return [s for s in reply["trace"]["spans"]
            if s["name"].startswith(prefix)]


def _cold(service, program: str) -> dict:
    """One traced miss; small enough that all four programs take ~0.1 s."""
    reply = service.handle({
        "op": "analyze", "program": program, "size": 16, "maxiter": 2,
        "procs": 4, "trace": True,
    })
    assert reply["ok"] and not reply["degraded"]
    assert reply["cache_hits"] == 0
    return reply


class TestWhereAMissIsComputed:
    def test_every_default_is_serial(self):
        assert WorkerPool().requested_kind == "serial"
        with LayoutService() as service:
            assert service.pool.requested_kind == "serial"

    def test_serve_without_pool_flag_is_one_process(self, monkeypatch):
        """``repro serve`` as its parser builds it, stopped where it
        would start accepting: one cold request, then a look around."""
        seen = {}

        def look_around(server) -> None:
            seen["switch_interval"] = sys.getswitchinterval()
            children = set(multiprocessing.active_children())
            seen["reply"] = server.service.handle(dict(REQUEST, size=20))
            seen["stats"] = server.service.stats()
            seen["born"] = set(multiprocessing.active_children()) - children

        monkeypatch.setattr(LayoutServer, "serve_forever", look_around)
        # the SIGTERM handler and the stderr log handler belong to a
        # real server process, not to whichever test runs this first
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        monkeypatch.setattr(cli, "configure_logging", lambda level: None)
        ours = sys.getswitchinterval()
        assert cli.main(["serve", "--port", "0"]) == 0
        # computes share the interpreter with the threads that accept
        # and shed: those get their turn quickly, and only while serving
        assert seen["switch_interval"] == pytest.approx(
            cli.SERVE_SWITCH_INTERVAL_S) and sys.getswitchinterval() == ours
        assert seen["reply"]["ok"] and seen["born"] == set()
        pool = seen["stats"]["pool"]
        assert pool["requested_kind"] == pool["active_kind"] == "serial"
        assert pool["degradations"] == 0
        assert "gauges" not in seen["stats"]
        assert "serial (requested serial)" in format_top(seen["stats"])

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_a_default_miss_never_leaves_its_thread(self, program):
        children = set(multiprocessing.active_children())
        with LayoutService() as service:
            reply = _cold(service, program)
            assert service.pool._executor is None
        assert set(multiprocessing.active_children()) <= children
        assert _spans(reply, "pool:") == []
        (fanout,) = _spans(reply, "estimation.fanout")
        assert fanout["attrs"] == {
            "jobs": len(reply["layouts"]), "parallel": False,
        }

    def test_a_process_pool_answers_bit_for_bit_the_same(self):
        with LayoutService() as service:
            here = [_cold(service, program) for program in sorted(PROGRAMS)]
        with LayoutService(
            pool=WorkerPool(kind="process", max_workers=2)
        ) as service:
            there = [_cold(service, program) for program in sorted(PROGRAMS)]
            assert service.pool.active_kind == "process"
        assert [_answer(r) for r in there] == [_answer(r) for r in here]

    def test_a_pool_handed_in_is_dispatched_to(self):
        """Chaos's ``pool.submit`` / ``pool.result`` faults fire only if
        the service really crosses the pool it was given."""
        with LayoutService() as service:
            exact = _answer(_cold(service, "adi"))
        plan = FaultPlan(seed=3, specs=[
            FaultSpec(site="pool.submit", times=1),
        ])
        with LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2)
        ) as service:
            with faults.armed(plan) as injector:
                faulted = _cold(service, "adi")
            clean = _cold(service, "erlebacher")
            injected = service.telemetry.events.tail(type="fault.injected")
        assert injector.fired_count() == 1
        assert [e["attrs"]["site"] for e in injected] == ["pool.submit"]
        assert _answer(faulted) == exact
        for reply in (faulted, clean):
            (crossing,) = _spans(reply, "pool:")
            assert crossing["name"] == "pool:estimate_phase_batch"
            assert crossing["attrs"]["requested_kind"] == "thread"
            (fanout,) = _spans(reply, "estimation.fanout")
            assert fanout["attrs"]["parallel"] is True

    def test_a_default_miss_times_out_at_an_in_thread_checkpoint(
        self, monkeypatch
    ):
        """Pricing that outlasts the hard limit is noticed at the next
        stage's checkpoint; there is no ``pool.result`` wait to end."""
        naps = []

        def napping(*args):
            if naps:
                time.sleep(naps.pop())
            return price(*args)

        price = estimator_module.estimate_phase_candidates
        monkeypatch.setattr(
            estimator_module, "estimate_phase_candidates", napping
        )
        with LayoutService(use_cache=False) as service:
            # untimed first: the training database is built once a process
            assert service.handle(dict(REQUEST))["ok"]
            service.request_timeout = 0.3
            naps.append(0.4)
            reply = service.handle(dict(REQUEST, request_id="late"))
            event = service.telemetry.events.tail(type="service.request")[-1]
        assert reply["error_kind"] == "timeout"
        assert event["attrs"]["request_id"] == "late"
        assert event["attrs"]["stopped_at"] == "stage:selection"

    def test_pool_active_serial_means_fell_back(self, monkeypatch):
        def fell_back(service) -> bool:
            # what the `pool_active_serial` gauge mirrored: both kinds
            # are in the pool's own block of the snapshot
            _cold(service, "adi")
            pool = service.stats()["pool"]
            return "serial" == pool["active_kind"] != pool["requested_kind"]

        with LayoutService(pool=WorkerPool(kind="serial")) as service:
            assert not fell_back(service)
        with LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2)
        ) as service:
            assert not fell_back(service)
            assert service.pool.active_kind == "thread"

        def unbuildable(*args, **kwargs):
            raise OSError("no pools in this sandbox")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", unbuildable)
        monkeypatch.setattr(pool_module, "ThreadPoolExecutor", unbuildable)
        with LayoutService(pool=WorkerPool(kind="process")) as service:
            assert fell_back(service)
            pool = service.stats()["pool"]
            assert pool["active_kind"] == "serial"
            assert pool["degradations"] >= 1
            assert 'repro_pool_active_kind{kind="serial"} 1' in \
                service.prometheus()
