"""A real ``repro serve`` process, driven the way a client drives it.

Each test starts ``python -m repro.tool.cli serve --port 0`` in a fresh
interpreter, reads the port the operating system picked from the
server's "listening on" log line, and talks to it over TCP with the CLI
client and ``send_request``.  Everything the server writes lands under
``tmp_path``, and the process is killed on the way out of every test,
whether its asserts held or not.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.obs.telemetry import read_event_log, validate_event_log
from repro.service.server import send_request
from repro.tool.cli import main as cli_main

SRC = Path(repro.__file__).resolve().parents[1]
SLO = str(SRC.parent / "examples" / "slo.json")

LISTENING = re.compile(r"listening on \S+:(\d+) ")

ADI = ("--program", "adi", "--size", "256", "--procs", "16")


@contextmanager
def serving(tmp_path: Path, *flags: str):
    """A ``repro serve`` process on a free port: yields ``(process,
    port)`` and kills the process on exit unless it already stopped."""
    log_path = tmp_path / "serve.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tool.cli", "serve",
             "--port", "0", *flags],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
    try:
        deadline = time.monotonic() + 60
        while not (match := LISTENING.search(log_path.read_text())):
            assert proc.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, log_path.read_text()
            time.sleep(0.05)
        yield proc, match.group(1)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


def _cli(capsys, *argv: str) -> str:
    """Run one CLI command in this process; its stdout."""
    capsys.readouterr()
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


def _request(capsys, port: str, *flags: str) -> dict:
    return json.loads(_cli(capsys, "request", *flags, "--port", port,
                           "--json"))


def _stats(capsys, port: str) -> dict:
    return json.loads(_cli(capsys, "service", "stats", "--port", port,
                           "--json"))


def _children(pid: int) -> list:
    """The pids whose parent is ``pid``, read from ``/proc``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def test_only_answers_are_cached_and_a_miss_is_computed_in_process(
        tmp_path, capsys):
    cache = tmp_path / "cache"
    with serving(tmp_path, "--request-timeout", "10",
                 "--cache-dir", str(cache)) as (proc, port):
        first = _request(capsys, port, *ADI)
        second = _request(capsys, port, *ADI)
        third = _request(capsys, port, *ADI, "--no-cache")
        assert first["ok"] and second["ok"] and third["ok"]
        assert first["cache_hits"] == 0, "first request must be cold"
        assert first["cache_misses"] == 7, first["stage_timings"]
        # answered from the answer stage alone: nothing else is loaded
        assert [(t["stage"], t["cache_hit"])
                for t in second["stage_timings"]] == [("answer", True)]
        assert (second["cache_hits"], second["cache_misses"]) == (1, 0)
        # --no-cache goes round the answer stage and the six below it
        assert [t["cache_hit"] for t in third["stage_timings"]] \
            == [False] * 6, third["stage_timings"]
        assert "answer" not in {t["stage"] for t in third["stage_timings"]}
        assert first["layouts"] == second["layouts"] == third["layouts"]

        # the default server computed those misses itself: one process
        stats = _stats(capsys, port)
        assert stats["pool"]["active_kind"] == "serial", stats["pool"]
        assert stats["pool"]["degradations"] == 0, stats["pool"]
        assert _children(proc.pid) == []
        assert stats["cache"]["hits"] >= 1, stats["cache"]
        assert stats["cache"]["misses"] >= 1, stats["cache"]
        assert stats["cache"]["per_stage"] == {
            "answer": {"hits": 1, "misses": 1}}
        for stage, hist in stats["stage_seconds"].items():
            assert hist["count"] >= 1, (stage, hist)
        assert stats["counters"]["requests_ok"] >= 3

        # changed procs is a second answer, computed from the source
        fourth = _request(capsys, port, *ADI, "--procs", "8")
        assert fourth["ok"] and fourth["layouts"], fourth
        assert fourth["cache_hits"] == 0, fourth["stage_timings"]
        assert os.listdir(cache) == ["answer"]
        entries = os.listdir(cache / "answer")
        assert len(entries) == 2, entries
        assert all(name.endswith(".pkl") for name in entries), entries
        assert list(_stats(capsys, port)["cache"]["per_stage"]) == ["answer"]

        _cli(capsys, "service", "shutdown", "--port", port)
        assert proc.wait(timeout=30) == 0


def test_two_clients_of_one_fresh_request_are_both_counted(tmp_path,
                                                           capsys):
    payload = {"op": "analyze", "program": "erlebacher", "size": 64,
               "procs": 16}
    with serving(tmp_path, "--cache-dir", str(tmp_path / "cache")) as (
            _, port):
        before = _stats(capsys, port)
        start = threading.Barrier(2)

        def client():
            start.wait(timeout=30)
            return send_request(dict(payload), port=int(port))

        with ThreadPoolExecutor(2) as clients:
            fifth, sixth = (future.result(timeout=120) for future in
                            [clients.submit(client) for _ in range(2)])
        after = _stats(capsys, port)
    assert fifth["ok"] and sixth["ok"], (fifth, sixth)
    assert not (fifth["degraded"] or sixth["degraded"])
    assert fifth["layouts"] == sixth["layouts"]

    def grew(read):
        return read(after) - read(before)

    admitted = grew(lambda s: s["admission"]["counters"]["admitted"])
    joined = grew(lambda s: s["counters"].get("requests_joined", 0))
    hits = grew(lambda s: s["cache"]["per_stage"].get(
        "answer", {}).get("hits", 0))
    # the second either joined the first (a hit once that is done),
    # arrived after it was done (a plain hit), or led a compute of its
    # own; two clients cannot be made to arrive in a chosen order
    assert admitted in (1, 2), (admitted, joined, hits)
    assert joined in (0, 1) and joined <= hits, (joined, hits)
    assert admitted + hits == 2, (admitted, joined, hits)
    if admitted == 1:
        assert sorted(r["cache_hits"] for r in (fifth, sixth)) == [0, 1]


def test_a_killed_server_loses_no_event_of_a_request_it_answered(
        tmp_path):
    """Process-crash durability is the flush before the reply, not the
    fsync that follows it: SIGKILL lands between the two."""
    events_dir = tmp_path / "events"
    with serving(tmp_path, "--telemetry-dir", str(events_dir)) as (
            proc, port):
        answered = []
        for i in range(12):
            reply = send_request({
                "op": "analyze", "program": "adi", "size": 32 + 8 * (i % 3),
                "procs": 4, "request_id": f"doomed-{i}",
            }, port=int(port))
            assert reply["ok"], reply
            answered.append(reply["request_id"])
        proc.kill()
        proc.wait(timeout=30)
    events, bad = read_event_log(events_dir)
    assert bad == 0, bad
    logged = {
        e["attrs"].get("request_id"): e["attrs"] for e in events
        if e["type"] == "service.request"
    }
    missing = [rid for rid in answered if rid not in logged]
    assert not missing, f"replied, but not in the log: {missing}"
    tiers = [logged[rid]["tier"] for rid in answered]
    assert tiers.count("compute") == 3, tiers
    assert tiers.count("answer") == 9, tiers


def test_event_log_slo_and_dashboard_of_a_served_process(tmp_path,
                                                         capsys):
    events_dir = tmp_path / "events"
    with serving(tmp_path, "--telemetry-dir", str(events_dir),
                 "--slo-file", SLO, "--trace-sample-every", "1") as (
            proc, port):
        for _ in range(3):
            assert _request(capsys, port, "--program", "adi", "--size",
                            "64", "--procs", "8")["ok"]
        # the live windows have data and meet every objective
        _cli(capsys, "slo", "check", "--port", port, "--objectives", SLO,
             "--require-data")
        page = _cli(capsys, "top", "--once", "--port", port,
                    "--objectives", SLO)
        assert "repro top" in page and "analyze" in page
        _cli(capsys, "service", "shutdown", "--port", port)
        assert proc.wait(timeout=30) == 0

    summary = validate_event_log(events_dir)
    assert summary["bad_lines_total"] == 0, summary
    types = summary["types"]
    assert types.get("service.request", 0) >= 3, types
    events, _ = read_event_log(events_dir)
    analyzed = [
        e["attrs"] for e in events
        if e["type"] == "service.request"
        and e["attrs"].get("op") == "analyze"
    ]
    # one compute, then two answer hits
    assert [a["tier"] for a in analyzed] == \
        ["compute", "answer", "answer"], analyzed
    # the sampler is offered computes only; --trace-sample-every 1 keeps
    # every healthy one of them
    kept = [e for e in events if e["type"] == "trace.kept"]
    assert len(kept) >= 1, types
    for event in kept:
        assert event["attrs"]["trace"]["spans"], event["attrs"]["trace_id"]
    # kept traces join, by trace_id, to the requests that computed
    computed = {a["trace_id"] for a in analyzed if a["tier"] == "compute"}
    assert all(e["attrs"]["trace_id"] in computed for e in kept)

    # the dead service's log replays to the same verdict offline
    _cli(capsys, "slo", "check", "--objectives", SLO, "--events",
         str(events_dir), "--require-data")
