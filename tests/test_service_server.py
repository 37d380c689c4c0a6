"""The TCP server end to end: protocol ops, cache-hit behavior over the
wire, parity with a direct ``analyze`` run, stats, and the CLI client."""

from __future__ import annotations

import gc
import json
import os
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.obs import tracing
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.resilience.deadline import checkpoint
from repro.resilience.errors import OverloadedError
from repro.service import server as server_module
from repro.service.pool import WorkerPool
from repro.service.protocol import (
    Answer,
    LayoutRequest,
    LayoutResponse,
    StageTiming,
    serialize_layout,
)
from repro.service.server import LayoutServer, LayoutService, send_request
from repro.tool import assistant as assistant_module
from repro.tool.assistant import (
    AssistantConfig,
    run_assistant,
    stage_partition,
)
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


def _handler_threads(before):
    """The connection threads started since ``before`` (a set of
    threads) — ``ThreadingTCPServer`` names them by their target."""
    return [
        thread for thread in threading.enumerate()
        if thread not in before
        and thread.name.endswith("(process_request_thread)")
    ]


def _join_all(threads, timeout=10.0):
    for thread in threads:
        thread.join(timeout=timeout)
    return [thread for thread in threads if thread.is_alive()]


@pytest.fixture
def fresh_server():
    """Servers of the test's own, so ``connections_total`` counts only
    its connections; yields a factory of started servers."""
    made = []

    def make(**kwargs):
        service = LayoutService(pool=WorkerPool(kind="serial"))
        server = LayoutServer(("127.0.0.1", 0), service, **kwargs)
        server.serve_background()
        made.append(server)
        return server

    yield make
    for server in made:
        server.shutdown()
        server.server_close()
        server.service.close()


def _connections(server) -> int:
    return server.service.metrics.counter("connections_total")


class _ScriptedServer:
    """A raw listener that answers each connection's first request
    whole and ends its second as told: ``partial`` sends part of a
    reply and closes, ``reset`` resets before any reply byte."""

    def __init__(self, ending: str):
        self.ending = ending
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as reader:
                first = json.loads(reader.readline())
                self.requests.append(first["n"])
                conn.sendall(json.dumps({"n": first["n"]}).encode()
                             + b"\n")
                line = reader.readline()
                if not line:
                    continue
                self.requests.append(json.loads(line)["n"])
                if self.ending == "partial":
                    conn.sendall(b'{"n": ')
                else:  # close with a reset
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))

    def close(self):
        self.listener.close()


class TestKeptConnection:
    """``send_request`` keeps one connection per thread, and reuses it
    only when that cannot lose or repeat a request."""

    def test_sequential_requests_share_one_connection(self, fresh_server):
        server = fresh_server()
        for index in range(50):
            payload = (dict(REQUEST, request_id=f"r{index}")
                       if index % 2 else {"op": "ping"})
            resp = send_request(payload, "127.0.0.1", server.port)
            assert resp["ok"], resp
            if index % 2:
                assert resp["request_id"] == f"r{index}"
        assert _connections(server) == 1
        assert server.service.metrics.counter("requests_total") == 25

    def test_each_thread_keeps_its_own_and_closes_it_on_exit(
        self, fresh_server
    ):
        server = fresh_server()
        before = set(threading.enumerate())
        replies = []
        done = threading.Barrier(3)
        # a client holds its connection until its handler is counted
        counted = threading.Event()

        def client():
            for _ in range(10):
                replies.append(
                    send_request({"op": "ping"}, "127.0.0.1", server.port)
                )
            done.wait(timeout=30)
            counted.wait(timeout=30)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            clients = [threading.Thread(target=client) for _ in range(2)]
            for thread in clients:
                thread.start()
            done.wait(timeout=30)
            handlers = _handler_threads(before)
            counted.set()
            assert not _join_all(clients)
            gc.collect()
        assert len(replies) == 20 and all(r["ok"] for r in replies)
        assert _connections(server) == 2
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        # the exiting threads closed their sockets: both handlers read
        # EOF and ended
        assert len(handlers) == 2
        assert not _join_all(handlers)

    def test_another_endpoint_closes_the_kept_one(self, fresh_server):
        first, second = fresh_server(), fresh_server()
        before = set(threading.enumerate())
        assert send_request({"op": "ping"}, "127.0.0.1", first.port)["ok"]
        [first_handler] = _handler_threads(before)
        assert send_request({"op": "ping"}, "127.0.0.1", second.port)["ok"]
        first_handler.join(timeout=10)
        assert not first_handler.is_alive()
        assert send_request({"op": "ping"}, "127.0.0.1", first.port)["ok"]
        assert (_connections(first), _connections(second)) == (2, 1)

    def test_a_connection_the_server_closed_is_replaced(self, fresh_server):
        server = fresh_server(conn_timeout_s=0.2)
        before = set(threading.enumerate())
        assert send_request({"op": "ping"}, "127.0.0.1", server.port)["ok"]
        # the handler writes its idle-timeout reply, closes and ends;
        # that reply is never taken for the next request's
        [handler] = _handler_threads(before)
        handler.join(timeout=10)
        assert not handler.is_alive()
        resp = send_request(dict(REQUEST, request_id="after-idle"),
                            "127.0.0.1", server.port)
        assert resp["ok"], resp
        assert resp["request_id"] == "after-idle"
        assert _connections(server) == 2

    def test_a_request_the_closed_connection_never_took_is_resent_once(
        self, fresh_server, monkeypatch
    ):
        server = fresh_server()
        # a draining server closes each connection after its reply;
        # the check before reuse is blinded to that, so the client
        # learns it only when its send finds the connection gone
        server.service.begin_drain()
        monkeypatch.setattr(server_module._Connection, "reusable_for",
                            lambda self, endpoint: self.endpoint == endpoint)
        for index in range(2):
            resp = send_request(dict(REQUEST, request_id=f"d{index}"),
                                "127.0.0.1", server.port)
            assert resp["error_kind"] == "shutting-down"
            assert resp["request_id"] == f"d{index}"
        assert server.service.metrics.counter("requests_total") == 2
        assert _connections(server) == 2

    def test_a_reset_before_any_reply_byte_is_resent_once(self):
        server = _ScriptedServer("reset")
        try:
            port = server.port
            assert send_request({"n": 1}, "127.0.0.1", port) == {"n": 1}
            assert send_request({"n": 2}, "127.0.0.1", port) == {"n": 2}
            assert server.requests == [1, 2, 2]
        finally:
            server.close()

    def test_a_partial_reply_is_raised_not_resent(self):
        server = _ScriptedServer("partial")
        try:
            port = server.port
            assert send_request({"n": 1}, "127.0.0.1", port) == {"n": 1}
            with pytest.raises(ValueError):
                send_request({"n": 2}, "127.0.0.1", port)
            assert send_request({"n": 3}, "127.0.0.1", port) == {"n": 3}
            assert server.requests == [1, 2, 3]
        finally:
            server.close()

    def test_a_timeout_on_a_kept_connection_is_not_resent(
        self, fresh_server, monkeypatch
    ):
        entered, proceed = threading.Event(), threading.Event()

        def held_partition(*args):
            entered.set()
            assert proceed.wait(timeout=30)
            return stage_partition(*args)

        monkeypatch.setattr(
            assistant_module, "stage_partition", held_partition
        )
        server = fresh_server()
        before = set(threading.enumerate())
        assert send_request({"op": "ping"}, "127.0.0.1", server.port)["ok"]
        try:
            with pytest.raises(socket.timeout):
                send_request(dict(REQUEST, use_cache=False),
                             "127.0.0.1", server.port, timeout=0.3)
            assert entered.wait(timeout=30)
        finally:
            proceed.set()
        # the server finishes the compute, and its handler ends on the
        # connection the client gave up
        assert not _join_all(_handler_threads(before))
        assert server.service.metrics.counter("requests_total") == 1
        assert _connections(server) == 1

    def test_a_forked_child_opens_its_own(self, fresh_server, monkeypatch):
        server = fresh_server()
        assert send_request({"op": "ping"}, "127.0.0.1", server.port)["ok"]
        parent = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: parent + 1)
        assert send_request({"op": "ping"}, "127.0.0.1", server.port)["ok"]
        assert send_request({"op": "ping"}, "127.0.0.1", server.port)["ok"]
        assert _connections(server) == 2


class _Shedding:
    """An admission controller that sheds every compute."""

    draining = False

    def enter(self):
        return True

    def leave(self):
        pass

    def try_acquire(self, budget_s):
        raise OverloadedError("queue full", retry_after_s=0.25)


class TestReplyBytes:
    """A reply line is ``json.dumps(to_dict())`` to the byte, on every
    shape, whether or not it was built around a stored answer text."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every :meth:`LayoutResponse.encode` the server runs, checked
        against ``json.dumps(to_dict())``; yields the lines."""
        lines = []
        encode = LayoutResponse.encode

        def checking(response):
            line = encode(response)
            assert line == json.dumps(response.to_dict()).encode() + b"\n"
            lines.append(line)
            return line

        monkeypatch.setattr(LayoutResponse, "encode", checking)
        return lines

    @staticmethod
    def _exchange(port, payloads):
        with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
            reader = s.makefile("rb")
            replies = []
            for payload in payloads:
                s.sendall(json.dumps(payload).encode() + b"\n")
                replies.append(reader.readline())
        return replies

    def test_every_analyze_shape_over_the_wire(self, fresh_server, checked):
        server = fresh_server()
        tomcatv = dict(REQUEST, program="tomcatv", size=128)
        shapes = [
            dict(REQUEST),                              # compute
            dict(REQUEST),                              # hit
            dict(REQUEST, use_cache=False),
            dict(REQUEST, request_id=7),
            dict(REQUEST, request_id="req-1"),
            dict(REQUEST, request_id="réq-✓ 名"),
            dict(REQUEST, trace=True),                  # a hit's trace
            dict(REQUEST, procs=8, trace=True),         # a compute's
            dict(tomcatv, deadline_s=0.01),             # degraded
            dict(tomcatv, deadline_s=0.01, trace=True, request_id="d"),
            {"op": "analyze", "program": "no-such-program", "procs": 4},
            {"op": "analyze", "program": "adi"},
        ]
        replies = self._exchange(server.port, shapes)
        assert replies == checked
        decoded = [json.loads(line) for line in replies]
        assert [r["ok"] for r in decoded] == [True] * 10 + [False] * 2
        assert decoded[1]["cache_hits"] == 1
        assert decoded[5]["request_id"] == "réq-✓ 名"
        assert all(r["degraded"] and r["degradations"]
                   for r in decoded[8:10])
        assert all("trace" in decoded[i] for i in (6, 7, 9))
        assert decoded[10]["error_kind"] == "bad-request"

    def test_an_overloaded_reply(self, fresh_server, checked):
        server = fresh_server()
        server.service.admission = _Shedding()
        (line,) = self._exchange(
            server.port, [dict(REQUEST, request_id="shed")]
        )
        assert line == checked[0]
        reply = json.loads(line)
        assert reply["error_kind"] == "overloaded"
        assert reply["retry_after_s"] == 0.25

    def test_built_replies(self):
        value = {"predicted_total_us": 12.5, "is_dynamic": False,
                 "layouts": {"0": {"hpf": "é", "alignments": {}}}}
        answer = Answer.of(value)
        timings = [StageTiming("answer", 1e-5, True)]
        degradations = [{"stage": "selection", "reason": "deadline"}]
        responses = [
            LayoutResponse.from_answer(value, timings, text=answer.text),
            LayoutResponse.from_answer(value, timings, request_id=3,
                                       text=answer.text),
            LayoutResponse.from_answer(
                value, timings, request_id="x", degradations=degradations,
                text=answer.text,
            ),
            LayoutResponse.from_answer(value, timings),
            LayoutResponse.failure(OverloadedError("full", 1.5), "o"),
            LayoutResponse.failure(ValueError("bad")),
        ]
        responses[0].trace = {"spans": [{"name": "request"}]}
        for response in responses:
            assert response.encode() == \
                json.dumps(response.to_dict()).encode() + b"\n"


class TestRequestLine:
    @pytest.mark.parametrize("line", [b"[1, 2]", b'"ping"', b"3", b"null",
                                      b"not json", b"\xff\xfe{"])
    def test_a_line_that_is_not_an_object_is_a_bad_request(
        self, fresh_server, line
    ):
        server = fresh_server()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(line + b"\n")
            refused = json.loads(reader.readline())
            sock.sendall(b'{"op": "ping"}\n')
            pong = json.loads(reader.readline())
        assert refused["ok"] is False
        assert refused["error_kind"] == "bad-request"
        assert pong == {"ok": True, "op": "ping"}
        metrics = server.service.metrics
        assert metrics.counter("requests_failed") == 1
        assert metrics.counter("requests_total") == 1

    def test_handle_and_handle_line_share_one_dispatch(self):
        with LayoutService(pool=WorkerPool(kind="serial")) as service:
            line = service.handle_line(b'{"op": "frobnicate"}')
            assert json.loads(line) == service.handle({"op": "frobnicate"})
            assert service.handle([1, 2])["error_kind"] == "bad-request"
            assert service.metrics.counter("requests_failed") == 3
