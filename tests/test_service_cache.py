"""Answer-cache correctness: identical answers, one entry per distinct
request, graceful recovery from corruption, and nothing behind the
``answer`` entry — a miss of it is ``run_assistant``."""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import asdict

import pytest

import repro.perf.training as training
from repro.machine.params import IPSC860, MACHINES, MachineParams
from repro.perf.training import cached_training_database, machine_cache_key
from repro.programs.registry import PROGRAMS
from repro.resilience.admission import (
    AdaptiveConcurrencyLimiter,
    AdmissionController,
)
from repro.service import cache as cache_module
from repro.service.cache import StageCache, StageKeys
from repro.service.pool import WorkerPool
from repro.service.protocol import Answer, LayoutRequest, answer_of
from repro.service.server import LayoutService
from repro.tool.assistant import AssistantConfig, run_assistant

from .prometheus_parser import parse_prometheus_text

REQUEST = {
    "op": "analyze",
    "program": "adi",
    "size": 32,
    "maxiter": 2,
    "procs": 4,
}


@pytest.fixture()
def service(tmp_path):
    with LayoutService(cache_dir=str(tmp_path / "cache"),
                       pool=WorkerPool(kind="serial")) as svc:
        yield svc


def _stage_hits(resp: dict) -> dict:
    return {t["stage"]: t["cache_hit"] for t in resp["stage_timings"]}


class TestCacheCorrectness:
    def test_same_request_twice_identical_with_hit(self, service):
        first = service.handle(dict(REQUEST))
        second = service.handle(dict(REQUEST))
        assert first["ok"] and second["ok"]
        assert first["cache_hits"] == 0
        assert second["cache_hits"] == len(second["stage_timings"])
        assert second["cache_misses"] == 0
        # byte-identical selection
        assert second["layouts"] == first["layouts"]
        assert second["predicted_total_us"] == first["predicted_total_us"]
        assert second["is_dynamic"] == first["is_dynamic"]
        totals = service.metrics.snapshot()["cache"]
        assert totals["hits"] >= 1 and totals["misses"] >= 1

    def test_cache_survives_service_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with LayoutService(cache_dir=cache_dir,
                           pool=WorkerPool(kind="serial")) as svc:
            first = svc.handle(dict(REQUEST))
        with LayoutService(cache_dir=cache_dir,
                           pool=WorkerPool(kind="serial")) as svc:
            second = svc.handle(dict(REQUEST))
        assert second["cache_hits"] == len(second["stage_timings"])
        assert second["layouts"] == first["layouts"]

    def test_corrupted_cache_file_recomputes(self, service, tmp_path):
        first = service.handle(dict(REQUEST))
        root = service.cache.root
        corrupted = 0
        for stage in os.listdir(root):
            stage_dir = os.path.join(root, stage)
            for name in os.listdir(stage_dir):
                with open(os.path.join(stage_dir, name), "wb") as handle:
                    handle.write(b"\x00garbage, not a pickle")
                corrupted += 1
        assert corrupted == 1
        service.cache.clear_memory()
        resp = service.handle(dict(REQUEST))
        assert resp["ok"]
        assert resp["cache_hits"] == 0  # the one entry was damaged
        assert resp["layouts"] == first["layouts"]

    def test_no_cache_request_never_hits(self, service):
        service.handle(dict(REQUEST))
        resp = service.handle(dict(REQUEST, use_cache=False))
        assert resp["ok"]
        assert resp["cache_hits"] == 0


ANSWER_FIELDS = ("layouts", "predicted_total_us", "is_dynamic")
STAGES = ("frontend", "partition", "alignment", "distribution",
          "estimation", "selection")


def _answer(resp: dict) -> dict:
    assert resp["ok"], resp
    return {name: resp[name] for name in ANSWER_FIELDS}


def _only_an_answer_hit(resp: dict) -> bool:
    return (_stage_hits(resp) == {"answer": True}
            and (resp["cache_hits"], resp["cache_misses"]) == (1, 0))


def _answer_files(service) -> list:
    folder = os.path.join(service.cache.root, "answer")
    return sorted(os.listdir(folder)) if os.path.isdir(folder) else []


class TestAnswerStage:
    @pytest.mark.parametrize("machine", ["ipsc860", "paragon"])
    @pytest.mark.parametrize("procs", [4, 16])
    @pytest.mark.parametrize(
        "program", ["adi", "erlebacher", "tomcatv", "shallow"]
    )
    def test_hit_equals_cold_reply(self, tmp_path, program, procs, machine):
        request = {"op": "analyze", "program": program, "size": 32,
                   "maxiter": 2, "procs": procs, "machine": machine}
        cache_dir = str(tmp_path / "cache")
        with LayoutService(cache_dir=cache_dir,
                           pool=WorkerPool(kind="serial")) as svc:
            cold = svc.handle(dict(request))
            assert _stage_hits(cold) == dict.fromkeys(
                ("answer",) + STAGES, False
            )
            from_memory = svc.handle(dict(request))
            svc.cache.clear_memory()
            from_disk = svc.handle(dict(request))
        with LayoutService(cache_dir=cache_dir,
                           pool=WorkerPool(kind="serial")) as svc:
            restarted = svc.handle(dict(request))
        for warm in (from_memory, from_disk, restarted):
            assert _only_an_answer_hit(warm)
            assert not warm["degraded"]
            assert _answer(warm) == _answer(cold)

    def test_key_takes_raw_source_and_whole_config(self, service):
        def key(**changes):
            request = LayoutRequest.from_dict(dict(REQUEST, **changes))
            return StageKeys(
                request.resolve_source(), request.resolve_config()
            ).answer

        assert key() == key()
        others = [key(procs=8), key(machine="paragon"), key(size=48),
                  key(backend="branch-bound")]
        assert len({key(), *others}) == 5

    def test_whitespace_edit_stores_its_own_answer(self, service):
        source = PROGRAMS["adi"].source(n=32, maxiter=2)
        base = {"op": "analyze", "source": source, "procs": 4}
        first = service.handle(dict(base))
        edited = dict(base, source=source.replace("\n", "\n\n", 1))
        resp = service.handle(dict(edited))
        assert _stage_hits(resp) == dict.fromkeys(("answer",) + STAGES, False)
        assert len(_answer_files(service)) == 2
        again = service.handle(dict(edited))
        assert _only_an_answer_hit(again)
        assert _answer(again) == _answer(resp) == _answer(first)

    def test_corrupt_answer_is_quarantined_and_stored_again(self, service):
        first = service.handle(dict(REQUEST))
        (name,) = _answer_files(service)
        path = os.path.join(service.cache.root, "answer", name)
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage, not a pickle")
        service.cache.clear_memory()
        resp = service.handle(dict(REQUEST))
        assert _stage_hits(resp) == dict.fromkeys(("answer",) + STAGES, False)
        assert _answer(resp) == _answer(first)
        assert service.cache.quarantined_total == 1
        assert _answer_files(service) == [name, name + ".quarantined"]
        service.cache.clear_memory()
        assert _only_an_answer_hit(service.handle(dict(REQUEST)))

    def test_no_cache_neither_reads_nor_writes_it(self, service):
        uncached = dict(REQUEST, use_cache=False)
        first = service.handle(dict(uncached))
        assert _stage_hits(first) == dict.fromkeys(STAGES, False)
        assert _answer_files(service) == []
        service.handle(dict(REQUEST))  # now there is one to read
        assert _stage_hits(service.handle(dict(uncached))) == \
            dict.fromkeys(STAGES, False)
        per_stage = service.stats()["cache"]["per_stage"]
        assert per_stage["answer"] == {"hits": 0, "misses": 1}

    def test_degraded_request_stores_no_answer(self, service):
        request = dict(REQUEST, program="tomcatv", size=128)
        degraded = service.handle(dict(request, deadline_s=1e-6))
        assert degraded["ok"] and degraded["degraded"]
        assert os.listdir(service.cache.root) == []
        exact = service.handle(dict(request))
        assert not exact["degraded"]
        assert exact["cache_hits"] == 0
        assert len(_answer_files(service)) == 1

    def test_brownout_request_with_cached_answer_is_exact(self, tmp_path):
        one_slot = AdmissionController(
            limiter=AdaptiveConcurrencyLimiter(initial_limit=1, max_limit=1)
        )  # every admitted request is at full utilization: brownout
        with LayoutService(cache_dir=str(tmp_path / "cache"),
                           pool=WorkerPool(kind="serial"),
                           admission=one_slot,
                           brownout_budget_s=60.0) as svc:
            request = dict(REQUEST, program="tomcatv", size=128)
            exact = svc.handle(dict(request))
            assert not exact["degraded"]
            svc.brownout_budget_s = 0.001  # far too short to solve in
            assert svc.handle(dict(request, procs=8))["degraded"]
            cached = svc.handle(dict(request))
            assert _only_an_answer_hit(cached)
            assert not cached["degraded"]
            assert _answer(cached) == _answer(exact)
            # the two computes were admitted, under brownout; the hit
            # took no ticket, so there was no budget to clamp
            assert svc.metrics.snapshot()["counters"][
                "requests_brownout"] == 2
            assert one_slot.describe()["counters"]["admitted"] == 2

    def test_trace_of_a_hit_holds_the_answer_stage_span(self, service):
        service.handle(dict(REQUEST))
        resp = service.handle(dict(REQUEST, trace=True))
        assert _only_an_answer_hit(resp)
        stages = [s for s in resp["trace"]["spans"]
                  if s["name"] == "service.stage"]
        assert [s["attrs"] for s in stages] == [
            {"stage": "answer", "cache_hit": True}
        ]

    def test_stats_and_prometheus_carry_the_answer_stage(self, service):
        service.handle(dict(REQUEST))
        service.handle(dict(REQUEST))
        stats = service.stats()
        assert stats["cache"]["per_stage"]["answer"] == \
            {"hits": 1, "misses": 1}
        assert stats["cache"]["disk_entries"]["answer"] == 1
        assert stats["stage_seconds"]["answer"]["count"] == 2
        samples = parse_prometheus_text(service.prometheus())
        label = (("stage", "answer"),)
        assert samples["repro_stage_cache_hits_total", label] == 1.0
        assert samples["repro_stage_cache_misses_total", label] == 1.0
        assert samples["repro_stage_seconds_count", label] == 2.0


class TestOneEntryPerRequest:
    """Nothing is cached but the answer: a miss is ``run_assistant``
    from the source text, whatever else the directory holds."""

    def test_cold_request_stores_once_under_answer(
        self, service, monkeypatch
    ):
        stored = []
        store = StageCache.store

        def counting(cache, stage, key, value):
            stored.append(stage)
            store(cache, stage, key, value)

        monkeypatch.setattr(StageCache, "store", counting)
        assert service.handle(dict(REQUEST))["ok"]
        assert stored == ["answer"]
        assert os.listdir(service.cache.root) == ["answer"]
        (entry,) = _answer_files(service)
        assert entry.endswith(".pkl")
        assert list(service.stats()["cache"]["per_stage"]) == ["answer"]

    @pytest.mark.parametrize("change", ["procs", "machine", "whitespace"])
    def test_changed_request_is_computed_from_the_source(
        self, service, change
    ):
        source = PROGRAMS["adi"].source(n=32, maxiter=2)
        base = {"op": "analyze", "source": source, "procs": 4}
        changed = dict(base, **{
            "procs": {"procs": 8},
            "machine": {"machine": "paragon"},
            "whitespace": {"source": source.replace("\n", "\n\n", 1)},
        }[change])
        service.handle(dict(base))
        resp = service.handle(dict(changed))
        assert resp["cache_hits"] == 0
        assert _stage_hits(resp) == dict.fromkeys(("answer",) + STAGES, False)
        assert len(_answer_files(service)) == 2
        request = LayoutRequest.from_dict(changed)
        direct = run_assistant(
            request.resolve_source(), request.resolve_config()
        )
        assert _answer(resp) == answer_of(direct)

    def test_stage_folders_of_an_older_cache_are_never_opened(
        self, tmp_path, monkeypatch
    ):
        """A directory written before the six stage entries went: the
        answer is served from ``answer/``; the rest is dead weight."""
        root = str(tmp_path / "cache")
        request = LayoutRequest.from_dict(dict(REQUEST))
        source, config = request.resolve_source(), request.resolve_config()
        result = run_assistant(source, config)
        keys = StageKeys(source, config)
        keys.bind_program(result.program)
        older = StageCache(root)
        for stage in STAGES:
            older.store(stage, keys.key_for(stage), b"stage output")
        older.store("answer", keys.answer, Answer.of(answer_of(result)))
        before = older.entry_count()
        assert before == dict.fromkeys(("answer",) + STAGES, 1)

        loaded = []
        load = StageCache.load

        def recording(cache, stage, key):
            loaded.append(stage)
            return load(cache, stage, key)

        monkeypatch.setattr(StageCache, "load", recording)
        with LayoutService(cache_dir=root,
                           pool=WorkerPool(kind="serial")) as svc:
            hit = svc.handle(dict(REQUEST))
            assert _only_an_answer_hit(hit)
            assert _answer(hit) == answer_of(result)
            other = svc.handle(dict(REQUEST, procs=8))
            assert other["ok"] and other["cache_hits"] == 0
        assert loaded == ["answer", "answer"]
        # one more answer, nothing else written or moved aside
        assert older.entry_count() == dict(before, answer=2)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_stage_timings_are_the_trace_spans_durations(
        self, service, use_cache
    ):
        resp = service.handle(
            dict(REQUEST, trace=True, use_cache=use_cache)
        )
        spans = {s["name"]: s["duration_us"] for s in resp["trace"]["spans"]}
        timed = {t["stage"]: t["seconds"] for t in resp["stage_timings"]}
        assert ("answer" in timed) == use_cache
        timed.pop("answer", None)
        assert timed == {
            stage: spans[f"stage:{stage}"] / 1e6 for stage in STAGES
        }
        hists = service.stats()["stage_seconds"]
        for stage in STAGES:
            assert hists[stage]["count"] == 1
            assert hists[stage]["sum"] == timed[stage]


def _line(payload: dict) -> bytes:
    return json.dumps(payload).encode()


class TestAnswerText:
    """The entry keeps its answer's JSON text: a compute encodes it
    once, a hit never, and a disk hit writes the memory hit's bytes."""

    def test_entry_is_the_answer_and_its_text(self, service):
        service.handle(dict(REQUEST))
        key = LayoutRequest.from_dict(dict(REQUEST)).answer_key()
        hit, entry = service.cache.load("answer", key)
        assert hit and isinstance(entry, Answer)
        assert entry.text == json.dumps(entry.value)
        assert list(entry.value) == ["predicted_total_us", "is_dynamic",
                                     "layouts"]

    def test_disk_hit_writes_the_memory_hits_bytes(self, service):
        line = _line(dict(REQUEST, request_id="same"))
        service.handle_line(line)
        from_memory = service.handle_line(line)
        service.cache.clear_memory()
        from_disk = service.handle_line(line)

        def without_seconds(reply: bytes) -> bytes:
            return re.sub(rb'"seconds": [^,]+,', b'"seconds": 0,', reply)

        # the lookup's duration is the only difference
        assert without_seconds(from_disk) == without_seconds(from_memory)
        assert _only_an_answer_hit(json.loads(from_disk))

    @pytest.fixture()
    def encoded(self, monkeypatch):
        """The values :meth:`Answer.of` encodes, one per call."""
        calls = []
        encode = Answer.of.__func__

        def counting(cls, value):
            calls.append(value)
            return encode(cls, value)

        monkeypatch.setattr(Answer, "of", classmethod(counting))
        return calls

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_a_compute_encodes_once_and_a_hit_never(
        self, service, encoded, use_cache
    ):
        line = _line(dict(REQUEST, use_cache=use_cache))
        assert json.loads(service.handle_line(line))["cache_hits"] == 0
        assert len(encoded) == 1
        if use_cache:
            for _ in range(50):
                reply = json.loads(service.handle_line(line))
                assert _only_an_answer_hit(reply)
            assert _only_an_answer_hit(service.handle(dict(REQUEST)))
            assert len(encoded) == 1

    def test_a_degraded_compute_encodes_once(self, service, encoded):
        reply = json.loads(service.handle_line(_line(dict(
            REQUEST, program="tomcatv", size=128, deadline_s=1e-6
        ))))
        assert reply["ok"] and reply["degraded"], reply
        assert len(encoded) == 1


class TestProgramKeyMemo:
    def test_repeated_program_requests_hash_nothing(self, monkeypatch):
        hashed = []
        sha256 = cache_module._sha256

        def counting(*parts):
            hashed.append(parts[0])
            return sha256(*parts)

        monkeypatch.setattr(cache_module, "_sha256", counting)
        payloads = [
            dict(REQUEST, size=36), dict(REQUEST, size=36, procs=8),
            dict(REQUEST, program="tomcatv", size=36),
            dict(REQUEST, size=36, machine=asdict(MACHINES["paragon"])),
        ]
        requests = [LayoutRequest.from_dict(p) for p in payloads]
        keys = [request.answer_key() for request in requests]
        hashed.clear()
        for _ in range(3):
            assert [LayoutRequest.from_dict(p).answer_key()
                    for p in payloads] == keys
        assert hashed == []
        for request, key in zip(requests, keys):
            assert key == sha256(
                "answer", cache_module.CACHE_VERSION,
                request.resolve_source(),
                request.resolve_config().to_key(),
            )
            assert key == StageKeys(
                request.resolve_source(), request.resolve_config()
            ).answer

    def test_a_source_request_is_keyed_by_its_text(self):
        source = PROGRAMS["adi"].source(n=32, maxiter=2)
        by_source = LayoutRequest.from_dict(
            {"op": "analyze", "source": source, "procs": 4}
        )
        by_name = LayoutRequest.from_dict(dict(REQUEST))
        assert by_source.answer_key() == by_name.answer_key()


class TestConfigRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        config = AssistantConfig(
            nprocs=16,
            machine=MACHINES["paragon"],
            ilp_backend="branch-bound",
            branch_probability=0.25,
            branch_prob_overrides={3: 0.75},
        )
        rebuilt = AssistantConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.to_key() == config.to_key()
        # overrides keys survive the str round-trip as ints
        assert rebuilt.branch_prob_overrides == {3: 0.75}

    def test_machine_by_registry_name(self):
        config = AssistantConfig.from_dict(
            {"nprocs": 8, "machine": "paragon"}
        )
        assert config.machine == MACHINES["paragon"]

    def test_key_is_sensitive_to_fields(self):
        base = AssistantConfig(nprocs=16)
        assert base.to_key() == AssistantConfig(nprocs=16).to_key()
        assert base.to_key() != AssistantConfig(nprocs=8).to_key()
        assert base.to_key() != AssistantConfig(
            nprocs=16, machine=MACHINES["paragon"]
        ).to_key()

    def test_to_dict_is_json_serializable(self):
        import json

        text = json.dumps(AssistantConfig(nprocs=4).to_dict(),
                          sort_keys=True)
        assert AssistantConfig.from_dict(json.loads(text)) == \
            AssistantConfig(nprocs=4)


class TestTrainingDatabaseCache:
    def test_key_derives_from_params_not_name(self, monkeypatch):
        monkeypatch.setattr(training, "PROC_COUNTS", (2,))
        tweaked = MachineParams(name=IPSC860.name, alpha_short=999.0)
        assert machine_cache_key(tweaked) != machine_cache_key(IPSC860)
        db_a = cached_training_database(IPSC860)
        db_b = cached_training_database(tweaked)
        assert db_a is not db_b

    def test_concurrent_access_converges_on_one_instance(self, monkeypatch):
        monkeypatch.setattr(training, "PROC_COUNTS", (2, 4))
        params = MachineParams(name="concurrency-probe", alpha_short=80.0)
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(cached_training_database(params))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert all(db is results[0] for db in results)
