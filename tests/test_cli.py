"""CLI tests (analyze / compare / summary, and the client's exit codes)."""

import logging
import pathlib
import socket
import threading

import pytest

import repro.service.server
from repro.tool.cli import main

SLO_FILE = str(pathlib.Path(__file__).parents[1] / "examples" / "slo.json")


@pytest.fixture
def cli_errors():
    """The error lines the CLI logs while a test runs."""
    records = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("repro.cli")
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


@pytest.fixture(params=["no reply", "non-JSON reply"])
def replyless_port(request):
    """A server that accepts, reads the request line, and then either
    closes without a word or answers with a line that is not JSON."""
    reply = b"" if request.param == "no reply" else b"not json\n"
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield str(listener.getsockname()[1])
    stop.set()
    thread.join(timeout=5)
    listener.close()


def _closed_port() -> str:
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return str(sock.getsockname()[1])


class TestAnalyze:
    def test_analyze_bundled_program(self, capsys):
        rc = main(["analyze", "--program", "adi", "--size", "32",
                   "--procs", "4", "--maxiter", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted execution time" in out
        assert "TEMPLATE" in out

    def test_analyze_show_spaces(self, capsys):
        rc = main(["analyze", "--program", "shallow", "--size", "48",
                   "--procs", "4", "--maxiter", "2", "--show-spaces"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase 0" in out
        assert "loosely synchronous" in out

    def test_analyze_from_file(self, tmp_path, capsys):
        src = (
            "program mini\n"
            "      integer n\n      parameter (n = 16)\n"
            "      real a(n, n), b(n, n)\n"
            "      integer i, j\n"
            "      do j = 1, n\n        do i = 2, n\n"
            "          a(i, j) = b(i - 1, j)\n"
            "        enddo\n      enddo\n"
            "      end\n"
        )
        path = tmp_path / "mini.f"
        path.write_text(src)
        rc = main(["analyze", "--file", str(path), "--procs", "4"])
        assert rc == 0
        assert "predicted execution time" in capsys.readouterr().out

    def test_analyze_branch_bound_backend(self, capsys):
        rc = main(["analyze", "--program", "adi", "--size", "32",
                   "--procs", "4", "--maxiter", "2",
                   "--backend", "branch-bound"])
        assert rc == 0

    def test_analyze_paragon_machine(self, capsys):
        rc = main(["analyze", "--program", "adi", "--size", "32",
                   "--procs", "4", "--maxiter", "2",
                   "--machine", "paragon"])
        assert rc == 0


class TestCompare:
    def test_compare_prints_scheme_table(self, capsys):
        rc = main(["compare", "--program", "adi", "--size", "32",
                   "--procs", "4", "--maxiter", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "row" in out and "column" in out and "tool" in out
        assert "estimated" in out and "measured" in out


class TestSummary:
    def test_quick_summary(self, capsys):
        rc = main(["summary", "--programs", "shallow", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shallow" in out
        assert "TOTAL" in out


class TestArgErrors:
    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--program", "linpack"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_procs_is_one_clean_error(self, cli_errors):
        assert main(["analyze", "--program", "adi", "--size", "32",
                     "--procs", "0"]) == 2
        (record,) = cli_errors
        assert "procs must be >= 1" in record.getMessage()
        assert record.exc_info is None

    def test_missing_file_is_one_clean_error(self, cli_errors):
        assert main(["analyze", "--file", "/nonexistent/prog.f"]) == 2
        (record,) = cli_errors
        assert "/nonexistent/prog.f" in record.getMessage()

    def test_request_validates_before_connecting(self, monkeypatch,
                                                 cli_errors):
        sent = []
        monkeypatch.setattr(repro.service.server, "send_request",
                            lambda payload, **kw: sent.append(payload))
        assert main(["request", "--procs", "0",
                     "--port", _closed_port()]) == 2
        assert sent == []
        assert len(cli_errors) == 1


class TestReplylessService:
    """A server that takes the connection but gives no usable reply is
    one logged line and the command's unreachable-service exit code,
    never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["request", "--program", "adi"],
        ["service", "ping"],
        ["top", "--once"],
    ], ids=["request", "service ping", "top --once"])
    def test_exits_one(self, argv, replyless_port, cli_errors, capsys):
        assert main([*argv, "--port", replyless_port,
                     "--timeout", "5"]) == 1
        (record,) = cli_errors
        assert "cannot reach layout service" in record.getMessage()
        assert record.exc_info is None
        assert capsys.readouterr().out == ""

    def test_slo_check_exits_two(self, replyless_port, cli_errors):
        assert main(["slo", "check", "--objectives", SLO_FILE,
                     "--port", replyless_port, "--timeout", "5"]) == 2
        (record,) = cli_errors
        assert "cannot reach layout service" in record.getMessage()


class TestFuzz:
    def test_fuzz_small_campaign_ok(self, capsys):
        rc = main(["fuzz", "--cases", "5", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 cases" in out
        assert "OK" in out

    def test_fuzz_check_subset(self, capsys):
        rc = main(["fuzz", "--cases", "3", "--seed", "1",
                   "--checks", "roundtrip"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "roundtrip" in out
        assert "selection-oracle" not in out

    def test_fuzz_unknown_check_rejected(self):
        rc = main(["fuzz", "--cases", "1", "--checks", "nonsense"])
        assert rc == 2

    def test_fuzz_budget_parsing_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--budget", "soon"])

    def test_fuzz_trace_records_case_spans(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "fuzz.json"
        rc = main(["fuzz", "--cases", "2", "--seed", "0",
                   "--checks", "roundtrip", "pipeline",
                   "--trace", str(trace_path)])
        assert rc == 0
        trace = json.loads(trace_path.read_text())
        names = [span["name"] for span in trace["spans"]]
        assert names.count("fuzz.case") == 2
        assert "fuzz.campaign" in names
