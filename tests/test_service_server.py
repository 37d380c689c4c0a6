"""The TCP server end to end: protocol ops, cache-hit behavior over the
wire, parity with a direct ``analyze`` run, stats, and the CLI client."""

from __future__ import annotations

import gc
import json
import time

import pytest

from repro.obs import tracing
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.resilience import checkpoint
from repro.service import (
    LayoutServer,
    LayoutService,
    WorkerPool,
    send_request,
)
from repro.service.protocol import LayoutRequest, serialize_layout
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.cli import main

REQUEST = {
    "op": "analyze",
    "program": "adi",
    "size": 32,
    "maxiter": 2,
    "procs": 4,
}


@pytest.fixture(scope="module")
def endpoint(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("service-cache"))
    service = LayoutService(cache_dir=cache_dir,
                            pool=WorkerPool(kind="thread", max_workers=4))
    server = LayoutServer(("127.0.0.1", 0), service)
    server.serve_background()
    yield "127.0.0.1", server.port
    server.shutdown()
    server.server_close()
    service.close()


class TestProtocolOps:
    def test_ping(self, endpoint):
        host, port = endpoint
        assert send_request({"op": "ping"}, host, port) == \
            {"ok": True, "op": "ping"}

    def test_unknown_op(self, endpoint):
        host, port = endpoint
        resp = send_request({"op": "frobnicate"}, host, port)
        assert not resp["ok"]
        assert resp["error_kind"] == "bad-request"
        counters = send_request(
            {"op": "stats"}, host, port
        )["stats"]["counters"]
        assert 1 <= counters["requests_failed"] <= counters["requests_total"]

    def test_validation_error(self, endpoint):
        host, port = endpoint
        resp = send_request(
            {"op": "analyze", "program": "no-such-program", "procs": 4},
            host, port,
        )
        assert not resp["ok"]
        assert resp["error_kind"] == "bad-request"
        assert "no-such-program" in resp["error"]

    def test_bad_json_line(self, endpoint):
        import socket

        host, port = endpoint
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("rb").readline()
        resp = json.loads(line)
        assert not resp["ok"]
        assert resp["error_kind"] == "bad-request"


class TestAnalyzeOverTcp:
    def test_second_request_hits_and_matches_direct_run(self, endpoint):
        host, port = endpoint
        first = send_request(dict(REQUEST), host, port)
        second = send_request(dict(REQUEST), host, port)
        assert first["ok"] and second["ok"]
        assert second["cache_hits"] == len(second["stage_timings"])
        assert second["layouts"] == first["layouts"]

        # parity with a cold, direct, serial analyze run
        request = LayoutRequest.from_dict(dict(REQUEST))
        direct = run_assistant(
            request.resolve_source(), AssistantConfig(nprocs=4)
        )
        expected = {
            str(idx): serialize_layout(layout)
            for idx, layout in sorted(direct.selected_layouts.items())
        }
        assert first["layouts"] == expected
        assert first["predicted_total_us"] == direct.predicted_total_us

    def test_stats_reports_hits_misses_and_timings(self, endpoint):
        host, port = endpoint
        send_request(dict(REQUEST), host, port)
        resp = send_request({"op": "stats"}, host, port)
        assert resp["ok"]
        stats = resp["stats"]
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["misses"] >= 1
        assert stats["counters"]["requests_total"] >= 2
        for stage in ("frontend", "partition", "alignment",
                      "distribution", "estimation", "selection"):
            hist = stats["stage_seconds"][stage]
            assert hist["count"] >= 1
            assert hist["sum"] > 0.0
        assert stats["pool"]["active_kind"] == "thread"
        assert stats["cache"]["disk_entries"]

    def test_request_id_echoed(self, endpoint):
        host, port = endpoint
        resp = send_request(dict(REQUEST, request_id="req-42"), host, port)
        assert resp["ok"]
        assert resp["request_id"] == "req-42"


class TestCliClient:
    def test_request_command(self, endpoint, capsys):
        host, port = endpoint
        rc = main(["request", "--program", "adi", "--size", "32",
                   "--maxiter", "2", "--procs", "4",
                   "--host", host, "--port", str(port)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted execution time" in out
        assert "TEMPLATE" in out

    def test_request_json_output(self, endpoint, capsys):
        host, port = endpoint
        rc = main(["request", "--program", "adi", "--size", "32",
                   "--maxiter", "2", "--procs", "4", "--json",
                   "--host", host, "--port", str(port)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert payload["layouts"]

    def test_service_stats_command(self, endpoint, capsys):
        host, port = endpoint
        rc = main(["service", "stats",
                   "--host", host, "--port", str(port)])
        out = capsys.readouterr().out
        assert rc == 0
        # the `top` page (the one text rendering of the snapshot)
        assert out.startswith("repro top")
        assert "requests " in out
        assert "cache     hit rate" in out
        assert "stage timings" in out


class TestRequestDeadline:
    def test_request_timeout_returns_error_response(self, tmp_path):
        service = LayoutService(
            cache_dir=str(tmp_path / "cache"),
            pool=WorkerPool(kind="serial"),
            request_timeout=1e-6,
        )
        try:
            resp = service.analyze_dict(dict(REQUEST))
        finally:
            service.close()
        assert not resp["ok"]
        assert resp["error_kind"] == "timeout"

    def test_configured_timeout_does_not_change_the_answer(self):
        def answer(request_timeout):
            with LayoutService(
                pool=WorkerPool(kind="serial"), use_cache=False,
                request_timeout=request_timeout,
            ) as service:
                resp = service.analyze_dict(dict(REQUEST))
            for timing in resp["stage_timings"]:
                del timing["seconds"]
            return resp

        assert answer(None) == answer(30)

    def test_request_trace_is_separate_from_an_outer_trace(self):
        outer = tracing.Tracer(name="outer")
        with LayoutService(
            pool=WorkerPool(kind="serial"), use_cache=False,
            request_timeout=30,
        ) as service:
            with tracing.activate(outer), tracing.span("caller"):
                response = service.analyze(
                    LayoutRequest.from_dict(dict(REQUEST, trace=True))
                )
                assert tracing.active_tracer() is outer
        assert response.ok
        assert [s["name"] for s in outer.to_dict()["spans"]] == ["caller"]
        trace = response.trace
        assert trace["trace_id"] != outer.trace_id
        names = [s["name"] for s in trace["spans"]]
        assert "caller" not in names
        assert names.count("request") == 1
        # no cache, no lookup span: the six stages under one pipeline
        assert names.count("service.stage") == 0
        assert names.count("pipeline") == 1
        assert sum(n.startswith("stage:") for n in names) == 6
        # self-contained: every parent is a span of the same trace
        ids = {s["span_id"] for s in trace["spans"]}
        assert all(
            s["parent_id"] is None or s["parent_id"] in ids
            for s in trace["spans"]
        )

    @pytest.mark.parametrize(
        "name", ["adi", "erlebacher", "shallow", "tomcatv"]
    )
    def test_timeout_reply_arrives_on_time(self, name):
        """The reply to a request that cannot finish is late by at most
        the longest stretch between two checkpoints: within twice the
        timeout plus 50 ms."""
        payload = {
            "op": "analyze", "program": name, "procs": 4,
            "size": PROGRAMS[name].default_size, "use_cache": False,
        }
        with LayoutService(
            pool=WorkerPool(kind="serial"), use_cache=False
        ) as service:
            service.analyze_dict(dict(payload))  # warm the process
            start = time.perf_counter()
            assert service.analyze_dict(dict(payload))["ok"]
            untimed = time.perf_counter() - start
            service.request_timeout = min(untimed / 2, 0.5)
            # A full collection of the test process's heap takes 70 ms;
            # landing in the timed request it reads as a late reply.
            gc.disable()
            try:
                start = time.perf_counter()
                resp = service.analyze_dict(dict(payload))
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
        assert seconds <= 2 * service.request_timeout + 0.05
        # a limit that passes inside the last stretch of the last stage
        # meets no checkpoint, and the finished answer is returned
        assert resp["ok"] or resp["error_kind"] == "timeout"

    def test_timeout_reply_arrives_on_time_from_a_stage_that_never_ends(
        self, monkeypatch
    ):
        """The same bound when only a checkpoint inside a stage can end
        the request: a stage that runs for a minute, 5 ms at a time."""
        def slow_stage(*_args, **_kwargs):
            for _ in range(12_000):
                time.sleep(0.005)
                checkpoint("test.slow-stage")
            raise AssertionError("the slow stage ran to its end")

        monkeypatch.setattr(
            "repro.tool.assistant.stage_distribution", slow_stage
        )
        with LayoutService(
            pool=WorkerPool(kind="serial"), use_cache=False,
            request_timeout=0.5,
        ) as service:
            start = time.perf_counter()
            resp = service.analyze_dict(dict(REQUEST, use_cache=False))
            seconds = time.perf_counter() - start
        assert seconds <= 2 * service.request_timeout + 0.05
        assert resp["error_kind"] == "timeout"
        assert "test.slow-stage" in resp["error"]

    def test_former_cliff_seed_is_an_ordinary_request(self):
        """Generator seed 1114 kept the packet-chasing layout graph busy
        for minutes; the linear solve answers it in full, on time."""
        payload = {
            "op": "analyze", "procs": 4, "use_cache": False,
            "source": generate_program(1114, GeneratorConfig()).source,
        }
        with LayoutService(
            pool=WorkerPool(kind="serial"), use_cache=False,
            request_timeout=30,
        ) as service:
            resp = service.analyze_dict(payload)
        assert resp["ok"]
        assert not resp["degraded"]

    def test_shutdown_op(self, tmp_path):
        service = LayoutService(pool=WorkerPool(kind="serial"))
        server = LayoutServer(("127.0.0.1", 0), service)
        thread = server.serve_background()
        resp = send_request({"op": "shutdown"}, "127.0.0.1", server.port)
        assert resp["ok"]
        assert resp["op"] == "shutdown"
        assert resp["draining"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()
        service.close()
