"""Graceful drain and its neighbors: in-flight work finishing under a
drain, typed ``shutting-down`` rejections, the durable drain record in
the event log, health/ready ops, the connection idle timeout (slowloris
guard), and what a request that hits its hard timeout leaves behind."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.service.pool import WorkerPool
from repro.service.server import LayoutServer, LayoutService, send_request
from repro.tool import assistant as assistant_module
from repro.tool.assistant import stage_partition

REQUEST = {
    "op": "analyze",
    "program": "adi",
    "size": 8,
    "maxiter": 2,
    "procs": 4,
    "use_cache": False,
}


@pytest.fixture
def service():
    svc = LayoutService(
        pool=WorkerPool(kind="thread", max_workers=2), use_cache=False
    )
    yield svc
    svc.close()


class TestServiceDrain:
    def test_drain_waits_for_in_flight_then_reports(self, service):
        # hold an admission slot to stand in for an in-flight request
        ticket = service.admission.try_acquire()
        timer = threading.Timer(
            0.1, service.admission.release, args=(ticket, 0.01)
        )
        timer.start()
        report = service.drain(deadline_s=10.0)
        timer.join()
        assert report["drained"] is True
        assert report["in_flight"] == 0
        assert report["waited_s"] >= 0.05

    def test_drain_deadline_is_respected(self, service):
        ticket = service.admission.try_acquire()
        start = time.monotonic()
        report = service.drain(deadline_s=0.05)
        assert time.monotonic() - start < 5.0
        assert report["drained"] is False
        assert report["in_flight"] == 1
        service.admission.release(ticket, 0.01)

    def test_drain_reports_a_running_request_until_it_returns(
        self, service, monkeypatch
    ):
        entered, proceed = threading.Event(), threading.Event()

        def held_partition(*args):
            entered.set()
            assert proceed.wait(timeout=30)
            return stage_partition(*args)

        monkeypatch.setattr(
            assistant_module, "stage_partition", held_partition
        )
        responses = []
        worker = threading.Thread(
            target=lambda: responses.append(
                service.analyze_dict(dict(REQUEST))
            )
        )
        worker.start()
        try:
            assert entered.wait(timeout=30)
            report = service.drain(deadline_s=0.05)
            assert report["drained"] is False
            assert report["in_flight"] == 1
        finally:
            proceed.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert responses[0]["ok"]
        report = service.drain(deadline_s=0.05)
        assert report["drained"] is True
        assert report["in_flight"] == 0

    def test_new_work_is_rejected_typed_during_drain(self, service):
        service.begin_drain()
        resp = service.analyze_dict(dict(REQUEST))
        assert not resp["ok"]
        assert resp["error_kind"] == "shutting-down"
        counters = service.metrics
        assert counters.counter("requests_shed") == 1
        assert counters.counter("requests_failed") == 1

    def test_drain_is_recorded_in_the_event_log(self, service):
        service.drain(deadline_s=1.0)
        events = service.telemetry.events.tail(type="service.drain")
        phases = [e.get("attrs", e).get("phase") for e in events]
        assert "begin" in phases
        assert "end" in phases

    def test_health_and_ready_reflect_draining(self, service):
        health = service.handle({"op": "health"})
        ready = service.handle({"op": "ready"})
        assert health["status"] == "ok"
        assert ready["ready"] is True
        service.begin_drain()
        health = service.handle({"op": "health"})
        ready = service.handle({"op": "ready"})
        assert health["status"] == "draining"
        assert ready["ready"] is False
        assert ready["draining"] is True

    def test_shutdown_op_reports_drain_state(self, service):
        resp = service.handle({"op": "shutdown"})
        assert resp["ok"]
        assert resp["draining"] is True
        assert "in_flight" in resp and "queue_depth" in resp


class TestTcpDrain:
    def test_graceful_shutdown_serves_in_flight_and_stops(self):
        service = LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2),
            use_cache=False,
        )
        server = LayoutServer(("127.0.0.1", 0), service)
        thread = server.serve_background()
        host, port = "127.0.0.1", server.port
        try:
            ticket = service.admission.try_acquire()
            timer = threading.Timer(
                0.2, service.admission.release, args=(ticket, 0.01)
            )
            timer.start()
            # while draining, the listener still answers with typed
            # rejections rather than connection resets
            resp = send_request(
                {"op": "shutdown", "drain_deadline_s": 10.0}, host, port
            )
            assert resp["draining"] is True
            rejected = send_request(dict(REQUEST), host, port)
            assert rejected["error_kind"] == "shutting-down"
            timer.join()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
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


class TestKeptConnectionLifecycle:
    """A client keeps its connection across requests; the server's
    lifecycle still reaches it: a draining server closes each
    connection after its reply, so the client's next request meets the
    listener as it is now."""

    def _serve(self, service):
        """A server whose accept loop ends with ``server_close``, as
        ``repro serve``'s does; returns ``(server, loop thread)``."""
        server = LayoutServer(("127.0.0.1", 0), service)

        def loop():
            server.serve_forever()
            server.server_close()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        return server, thread

    def test_drain_closes_the_kept_connection_then_refuses(self):
        service = LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2),
            use_cache=False,
        )
        server, thread = self._serve(service)
        host, port = "127.0.0.1", server.port
        before = set(threading.enumerate())
        # one ticket keeps the drain open until it is released
        ticket = service.admission.try_acquire()
        released = False
        try:
            assert send_request({"op": "ping"}, host, port)["ok"]
            [kept] = _handler_threads(before)
            resp = send_request(
                {"op": "shutdown", "drain_deadline_s": 10.0}, host, port
            )
            assert resp["draining"] is True
            # the shutdown op was the kept connection's last request
            kept.join(timeout=10)
            assert not kept.is_alive()
            rejected = send_request(dict(REQUEST), host, port)
            assert rejected["error_kind"] == "shutting-down"
            rejected = send_request({"op": "analyze", "program": "adi",
                                     "procs": 4}, host, port)
            assert rejected["error_kind"] == "shutting-down"
            # each refusal came on a new connection, closed after it
            assert service.metrics.counter("connections_total") == 3
            service.admission.release(ticket, 0.01)
            released = True
            thread.join(timeout=10)
            assert not thread.is_alive()
            with pytest.raises(ConnectionRefusedError):
                send_request({"op": "ping"}, host, port, timeout=5)
        finally:
            if not released:
                service.admission.release(ticket, 0.01)
            server.shutdown()
            server.server_close()
            service.close()

    def test_no_connection_thread_outlives_server_close(self):
        service = LayoutService(pool=WorkerPool(kind="serial"))
        server = LayoutServer(("127.0.0.1", 0), service)
        server.serve_background()
        host, port = "127.0.0.1", server.port
        before = set(threading.enumerate())
        served, stop = threading.Event(), threading.Event()

        def other_client():
            assert send_request({"op": "ping"}, host, port)["ok"]
            served.set()
            stop.wait(timeout=30)  # keeps its connection open

        client = threading.Thread(target=other_client, daemon=True)
        client.start()
        try:
            assert send_request({"op": "ping"}, host, port)["ok"]
            assert served.wait(timeout=30)
            handlers = _handler_threads(before)
            assert len(handlers) == 2
            server.shutdown()
            server.server_close()
            for handler in handlers:
                handler.join(timeout=10)
            assert not [h for h in handlers if h.is_alive()]
        finally:
            stop.set()
            client.join(timeout=10)
            server.shutdown()
            server.server_close()
            service.close()


class TestConnectionIdleTimeout:
    def test_slowloris_connection_gets_typed_timeout(self):
        service = LayoutService(
            pool=WorkerPool(kind="serial"), use_cache=False
        )
        server = LayoutServer(
            ("127.0.0.1", 0), service, conn_timeout_s=0.2
        )
        server.serve_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                # send no newline: the handler must not block forever
                sock.sendall(b'{"op": "ping"')
                line = sock.makefile("rb").readline()
            assert line, "server closed without the typed reply"
            import json
            resp = json.loads(line)
            assert not resp["ok"]
            assert resp["error_kind"] == "timeout"
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestZombieWorkers:
    """There are none: a request that hits its hard timeout holds no
    slot, no thread and no CPU once its typed reply is out."""

    def test_timed_out_request_leaves_nothing_behind(self):
        service = LayoutService(
            pool=WorkerPool(kind="serial"),
            use_cache=False,
            request_timeout=1e-6,
        )
        try:
            threads = threading.active_count()
            for _ in range(50):
                resp = service.analyze_dict(dict(REQUEST))
                assert not resp["ok"]
                assert resp["error_kind"] == "timeout"
                assert service.admission.describe()["in_flight"] == 0
            assert threading.active_count() == threads
            assert service.metrics.counter("requests_timeout") == 50
            # the first checkpoint already saw the expired limit
            assert service.metrics.snapshot()["stage_seconds"] == {}
        finally:
            service.close()

    def test_no_stage_runs_after_the_expired_checkpoint(self, monkeypatch):
        def slow_partition(*args):
            # the stage's own checkpoint passes, then the limit does
            result = stage_partition(*args)
            time.sleep(0.3)
            return result

        monkeypatch.setattr(
            assistant_module, "stage_partition", slow_partition
        )
        service = LayoutService(
            pool=WorkerPool(kind="serial"),
            use_cache=False,
            request_timeout=0.2,
        )
        try:
            resp = service.analyze_dict(dict(REQUEST, request_id="late"))
            assert resp["error_kind"] == "timeout"
            # the reply and the event both say where the request stopped
            assert "stage:alignment" in resp["error"]
            event = service.telemetry.events.tail(type="service.request")[-1]
            assert event["attrs"]["stopped_at"] == "stage:alignment"
            assert event["attrs"]["request_id"] == "late"
            assert len(
                service.telemetry.events.tail(type="deadline.expired")
            ) == 1
            ran = set(service.metrics.snapshot()["stage_seconds"])
            assert ran == {"frontend", "partition"}
            assert service.admission.describe()["in_flight"] == 0
        finally:
            service.close()

    def test_timeout_shrinks_the_concurrency_limit(self):
        service = LayoutService(
            pool=WorkerPool(kind="serial"),
            use_cache=False,
            request_timeout=1e-6,
        )
        try:
            before = service.admission.limiter.limit
            service.analyze_dict(dict(REQUEST))
            # a hard timeout is the strongest congestion signal: the
            # AIMD limiter backs off multiplicatively
            assert service.admission.limiter.limit < before
        finally:
            service.close()
