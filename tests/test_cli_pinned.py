"""The command line's output and surface, held to the byte.

Each command in ``COMMANDS`` runs in-process through ``main``; its stdout
is digested with sha256 after masking what varies between runs: the
selection's ``solved in N ms`` and the fuzz campaign's ``cases in N.Ns``.
Every ``explain --json`` is digested without its ``trace_id``,
``start_us`` and ``duration_us`` keys.  ``REQUESTS`` pins what ``repro
request`` hands to ``send_request``, as the server decodes it
(``LayoutRequest.from_dict``).  ``SURFACE`` pins each subcommand's
argparse actions: option strings, dest, default, choices (as a list,
whatever container declares them), nargs, type and whether it is
required.

The pins were taken before every analysis command built its input as
one ``LayoutRequest``.  A digest that moves fails naming its command.
If an output changes on purpose, re-pin with
``PYTHONPATH=src python -m tests.test_cli_pinned`` from the repo root
and paste the printed dicts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import re
import tempfile

import pytest

import repro.service.server
from repro.perf.bench.suite import TIED_SEED
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.service.protocol import LayoutRequest
from repro.tool.cli import main

#: stands for a file holding a generated adi source
ADI_FILE = "<adi-file>"
#: stands for a file holding generated program ``TIED_SEED``, whose
#: ``phase1`` alignment resolution ties and goes to the 0-1 solver
TIED_FILE = "<tied-file>"
SMALL = ["--size", "32", "--procs", "4"]

COMMANDS = {
    "analyze adi": ["analyze", "--program", "adi", *SMALL],
    "analyze erlebacher --show-spaces": [
        "analyze", "--program", "erlebacher", "--size", "16",
        "--procs", "4", "--show-spaces",
    ],
    "analyze tomcatv --backend branch-bound": [
        "analyze", "--program", "tomcatv", *SMALL, "--maxiter", "2",
        "--backend", "branch-bound",
    ],
    "analyze shallow --machine paragon --dtype double --maxiter 2": [
        "analyze", "--program", "shallow", *SMALL, "--machine", "paragon",
        "--dtype", "double", "--maxiter", "2",
    ],
    "analyze --file": ["analyze", "--file", ADI_FILE, "--procs", "4"],
    "hpf adi": ["hpf", "--program", "adi", *SMALL],
    "hpf --file": ["hpf", "--file", ADI_FILE, "--procs", "8"],
    "compare adi": ["compare", "--program", "adi", *SMALL, "--maxiter", "2"],
    "fuzz --cases 3 --checks roundtrip": [
        "fuzz", "--cases", "3", "--checks", "roundtrip",
    ],
    "explain --json": ["explain", "--program", "adi", *SMALL, "--json"],
    **{
        f"explain {program} @{procs} --json": [
            "explain", "--program", program, "--size", "32", "--procs",
            str(procs), "--maxiter", "2", "--json",
        ]
        for program in ("erlebacher", "shallow", "tomcatv")
        for procs in (4, 16)
    },
    "explain --file tied --json": [
        "explain", "--file", TIED_FILE, "--procs", "4", "--json",
    ],
}

REQUESTS = {
    "request adi": ["request", "--program", "adi"],
    "request --file --no-cache": [
        "request", "--file", ADI_FILE, "--procs", "8", "--no-cache",
    ],
    "request every flag": [
        "request", "--program", "tomcatv", "--size", "64", "--dtype",
        "real", "--maxiter", "2", "--procs", "2", "--machine", "paragon",
        "--backend", "branch-bound", "--deadline", "0.5", "--json",
    ],
}

PINNED = {
    "analyze adi": "bcd25c312b58274a",
    "analyze erlebacher --show-spaces": "db5a92f43f388079",
    "analyze tomcatv --backend branch-bound": "ce8556e5c7d09ff7",
    "analyze shallow --machine paragon --dtype double --maxiter 2":
        "2a45035eac8967ff",
    "analyze --file": "d52b620d46fb15a7",
    "hpf adi": "157f928b6d2fc5dd",
    "hpf --file": "7bc0d13aa30b7b71",
    "compare adi": "7922ba15e4be6625",
    "fuzz --cases 3 --checks roundtrip": "ef03178eb0f898ba",
    "explain --json": "99b9c577a51b4b93",
    "explain erlebacher @4 --json": "1042dbd7c3dad902",
    "explain erlebacher @16 --json": "5e1f031ab7f42bee",
    "explain shallow @4 --json": "469c831b221fb972",
    "explain shallow @16 --json": "a7ff4710d252db72",
    "explain tomcatv @4 --json": "aff1939c4b2dc210",
    "explain tomcatv @16 --json": "6ac0f12fa8af209b",
    "explain --file tied --json": "8f2c026f23140835",
    "request adi": "d1ac3cdc79da136f",
    "request --file --no-cache": "82c17bc90c4d9dc5",
    "request every flag": "58321d0b93a34006",
}

SURFACE = {
    "autolayout": "3a814a6309beda63",
    "autolayout analyze": "b4272a3202749414",
    "autolayout explain": "adab7559ca52973b",
    "autolayout stats": "c6712e0db66ff6fc",
    "autolayout compare": "be7e88f73534d0c3",
    "autolayout hpf": "4e331f4041ebe580",
    "autolayout serve": "a8194f9bc67941f8",
    "autolayout request": "f757a3ae830617e7",
    "autolayout service": "20372dd36941cf7c",
    "autolayout slo": "8b7bb8af54668b8e",
    "autolayout top": "e199beed0d0b601d",
    "autolayout fuzz": "2c8bcb0690c9965b",
    "autolayout chaos": "8444512d1e048aff",
    "autolayout loadtest": "7fb8f2e61d75e1ec",
    "autolayout bench": "62cc75084e559c9b",
    "autolayout bench run": "953d1312a49735ee",
    "autolayout bench compare": "74d829791a31d4e2",
    "autolayout bench gate": "74d829791a31d4e2",
    "autolayout bench profile": "a458850afc727099",
    "autolayout summary": "4f01d53121c66917",
}

_MASKS = [
    (re.compile(r"solved in \d+ ms"), "solved in N ms"),
    (re.compile(r"cases in \d+\.\ds"), "cases in N.Ns"),
]
_VOLATILE = {"trace_id", "start_us", "duration_us"}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in _VOLATILE}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


@contextlib.contextmanager
def _source_files():
    """``{placeholder: path}`` of temp files holding the sources the
    placeholders stand for."""
    sources = {
        ADI_FILE: PROGRAMS["adi"].source(n=32, maxiter=2),
        TIED_FILE: generate_program(TIED_SEED, GeneratorConfig()).source,
    }
    with contextlib.ExitStack() as stack:
        paths = {}
        for placeholder, text in sources.items():
            handle = stack.enter_context(
                tempfile.NamedTemporaryFile("w", suffix=".f"))
            handle.write(text)
            handle.flush()
            paths[placeholder] = handle.name
        yield paths


def _argv(argv, paths):
    return [paths.get(arg, arg) for arg in argv]


def command_digest(name: str) -> str:
    """The masked stdout digest of one ``COMMANDS`` entry."""
    out = io.StringIO()
    with _source_files() as paths, contextlib.redirect_stdout(out):
        assert main(_argv(COMMANDS[name], paths)) == 0, name
    text = out.getvalue()
    if name.startswith("explain"):
        text = json.dumps(_strip(json.loads(text)), sort_keys=True)
    for pattern, mask in _MASKS:
        text = pattern.sub(mask, text)
    return _digest(text)


def request_digest(name: str) -> str:
    """The digest of the request one ``REQUESTS`` entry sends."""
    sent = []

    def fake_send(payload, **kwargs):
        sent.append(payload)
        return {"ok": False, "error": "pinned", "error_kind": "bad-request"}

    original = repro.service.server.send_request
    repro.service.server.send_request = fake_send
    try:
        with _source_files() as paths, \
                contextlib.redirect_stdout(io.StringIO()):
            main(_argv(REQUESTS[name], paths))
    finally:
        repro.service.server.send_request = original
    (payload,) = sent
    decoded = dataclasses.asdict(LayoutRequest.from_dict(payload))
    decoded["op"] = payload["op"]
    return _digest(json.dumps(decoded, sort_keys=True))


class _Captured(Exception):
    pass


def _top_parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds, taken from its ``parse_args`` call."""

    def grab(self, args=None, namespace=None):
        raise _Captured(self)

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = grab
    try:
        main(["analyze"])
    except _Captured as captured:
        return captured.args[0]
    finally:
        argparse.ArgumentParser.parse_args = original
    raise AssertionError("main never parsed its arguments")


def surfaces(parser=None, path="autolayout"):
    """``{command path: digest of its argparse actions}``."""
    parser = parser or _top_parser()
    rows = []
    out = {path: None}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            rows.append(("<subcommands>", action.dest, sorted(action.choices),
                         action.required))
            for name, sub in action.choices.items():
                out.update(surfaces(sub, f"{path} {name}"))
            continue
        choices = None if action.choices is None else list(action.choices)
        rows.append((
            action.option_strings, action.dest, action.default,
            choices, action.nargs,
            getattr(action.type, "__name__", action.type), action.required,
        ))
    out[path] = _digest(repr(rows))
    return out


@functools.cache
def _surfaces():
    return surfaces()


class TestPinnedCommands:
    @pytest.mark.parametrize("name", COMMANDS)
    def test_stdout(self, name):
        assert command_digest(name) == PINNED[name], \
            f"stdout of `{name}` moved"

    @pytest.mark.parametrize("name", REQUESTS)
    def test_request_payload(self, name):
        assert request_digest(name) == PINNED[name], \
            f"the request `{name}` sends moved"


class TestPinnedSurface:
    def test_every_subcommand_is_pinned(self):
        assert sorted(surfaces()) == sorted(SURFACE)

    @pytest.mark.parametrize("command", SURFACE)
    def test_actions(self, command):
        assert _surfaces().get(command) == SURFACE[command], \
            f"the argparse actions of `{command}` moved"


if __name__ == "__main__":  # re-pin: print both dicts
    print("PINNED = {")
    for name in COMMANDS:
        print(f"    {name!r}: {command_digest(name)!r},")
    for name in REQUESTS:
        print(f"    {name!r}: {request_digest(name)!r},")
    print("}\n\nSURFACE = {")
    for command, digest in surfaces().items():
        print(f"    {command!r}: {digest!r},")
    print("}")
