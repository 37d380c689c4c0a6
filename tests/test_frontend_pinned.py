"""The front end's answers, held to the bit.

Every distinct source the repo benchmark feeds the tool (the paper grid,
the four default sizes, the generated programs) and every corpus case is
tokenized and parsed; what the front end makes of them — the
``(kind, value, line)`` token triples and the ``repr`` of the parsed
file — is digested and pinned.  A seeded set of single-edit mutants of
those sources pins the error paths too: for each mutant either the
digest of what it parses to or the type and message of what it raises,
one line per mutant in ``golden/frontend_mutants.txt``.

The pins were taken before the lexer's single regex pass and the
parser's precedence-climbing loop replaced the per-token match and the
recursive-descent ladder; the only outcomes allowed to differ from them
are the mutants listed in ``DOTTED_AFTER_INTEGER``.  If the generator or
a program template changes, re-pin at the parent commit with
``PYTHONPATH=src python tests/test_frontend_pinned.py``.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from functools import cache

import pytest

from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_source_file
from repro.programs import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.tool.testcases import TestCase, grid_for, source_for

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "frontend_mutants.txt"

#: the repo benchmark's generated population: seeds 1000..1299 but four,
#: plus five heavier ones
GENERATED_SEEDS = [
    s for s in range(1000, 1300) if s not in (1114, 1137, 1154, 1270)
] + [1334, 1413, 1642, 1688, 1968]

PINNED_SOURCES = {
    "paper": "976c449d62415f1d",
    "generated": "3acc129d36c8521e",
    "corpus": "b20a13b36e90496a",
}

MUTANTS = 3000
#: characters a mutant may insert or substitute: the lexer's alphabet,
#: upper case (kept in REAL text only), and two it must refuse
ALPHABET = " \t\n.,()=+-*/:&!<>0123456789edqxEDCI#?"
#: dotted operators a mutant may insert, with no blank around them
DOTTED = (".eq.", ".and.", ".not.", ".true.", ".LT.", ".Or.", ".false.")

#: mutants the ``.eq.`` fix turns from a ``LexError`` into a parse: an
#: integer followed by a dotted operator with no blank between them
#: (``1.Or.``) lexed as the REAL ``1.`` and then failed on the ``.`` after
#: the name ``or``.  seed -> (outcome kind, digest) after the fix
DOTTED_AFTER_INTEGER = {
    371: ("ParseError", "19089e1e2dbedd11"),  # b(j + 2.true., k - 2)
    664: ("ParseError", "ed7abed03e231bbc"),  # a(i + 2, j - 2.Or.)
    1039: ("ParseError", "811d097532299298"),  # do j = 1.Or., n
    1188: ("ParseError", "27b05c9a904cda23"),  # do j = 1.LT., n
    1210: ("ok", "868061d24c668521"),  # a(n - j + 1) + 3.LT..0
    1300: ("ParseError", "7a7ee0b8ab6e2ac6"),  # c(6.LT., k + 1)
    1520: ("ParseError", "ec41446cd82c44ab"),  # b(j - 2.and., k)
    1970: ("ParseError", "2f33f051ce24d774"),  # a(i + 1.LT., j - 2)
    2134: ("ParseError", "5cd5cc1d5fac91d4"),  # b(i - 2, j - 1.Or., k)
    2172: ("ParseError", "15c3b39e500a36a3"),  # b(j + 2, k - 2) + 5.not..0
    2610: ("ParseError", "a0fafb27458c9e47"),  # do i = 1.true., n
    2684: ("ParseError", "4638cfc703d51cf7"),  # a(i - 1, j - 2.false., ...)
}


@cache
def populations():
    """name -> distinct sources, in a fixed order."""
    paper = {}
    for name in ("adi", "erlebacher", "shallow", "tomcatv"):
        spec = PROGRAMS[name]
        cases = grid_for(spec) + [
            TestCase(name, spec.default_size, spec.default_dtype, 0)
        ]
        for case in cases:
            paper.setdefault(source_for(case), None)
    generated = [
        generate_program(seed, GeneratorConfig()).source
        for seed in GENERATED_SEEDS
    ]
    corpus = [p.read_text() for p in sorted((HERE / "corpus").glob("*.f"))]
    return {"paper": list(paper), "generated": generated, "corpus": corpus}


def outcome(source):
    """``(kind, digest)``: ``ok`` and the digest of the token triples and
    the parsed file, or the exception's type name and the digest of its
    type and message."""
    h = hashlib.sha256()
    try:
        for tok in tokenize(source):
            h.update(f"{tok.kind} {tok.value!r} {tok.line}\n".encode())
        h.update(repr(parse_source_file(source)).encode())
    except Exception as exc:  # the message is part of the answer
        kind = type(exc).__name__
        h.update(f"{kind}: {exc}".encode())
        return kind, h.hexdigest()[:16]
    return "ok", h.hexdigest()[:16]


def population_digest(sources):
    h = hashlib.sha256()
    for source in sources:
        h.update(" ".join(outcome(source)).encode() + b"\n")
    return h.hexdigest()[:16]


def mutant(seed):
    """One single-edit mutant of one of the pinned sources."""
    rng = random.Random(f"frontend-mutant:{seed}")
    sources = [s for group in populations().values() for s in group]
    source = rng.choice(sources)
    edit = rng.choice(("delete", "insert", "replace", "insert-dotted",
                       "drop-line", "repeat-line"))
    if edit.endswith("line"):
        lines = source.split("\n")
        at = rng.randrange(len(lines))
        lines[at:at + 1] = [] if edit == "drop-line" else [lines[at]] * 2
        return "\n".join(lines)
    at = rng.randrange(len(source))
    piece = rng.choice(DOTTED if edit == "insert-dotted" else ALPHABET)
    if edit == "delete":
        return source[:at] + source[at + 1:]
    if edit.startswith("insert"):
        return source[:at] + piece + source[at:]
    return source[:at] + piece + source[at + 1:]


def golden():
    pins = {}
    for row in GOLDEN.read_text().split("\n"):
        if row:
            seed, kind, digest = row.split()
            pins[int(seed)] = (kind, digest)
    return pins


class TestPinnedSources:
    @pytest.mark.parametrize("population", PINNED_SOURCES)
    def test_digest(self, population):
        sources = populations()[population]
        assert population_digest(sources) == PINNED_SOURCES[population]

    def test_every_pinned_source_parses(self):
        for group in populations().values():
            for source in group:
                assert outcome(source)[0] == "ok"


class TestPinnedMutants:
    def test_outcomes(self):
        pins = golden()
        assert sorted(pins) == list(range(MUTANTS))
        moved = []
        for seed in range(MUTANTS):
            now = outcome(mutant(seed))
            if seed in DOTTED_AFTER_INTEGER:
                assert pins[seed][0] == "LexError", seed
                assert now == DOTTED_AFTER_INTEGER[seed], seed
            elif now != pins[seed]:
                moved.append((seed, pins[seed], now))
        assert moved == []

    def test_mutants_reach_every_outcome(self):
        kinds = {kind for kind, _digest in golden().values()}
        assert {"ok", "LexError", "ParseError"} <= kinds


if __name__ == "__main__":  # re-pin: print the digests, rewrite the file
    for name, sources in populations().items():
        print(f"    {name!r}: {population_digest(sources)!r},")
    GOLDEN.write_text("".join(
        f"{seed} {' '.join(outcome(mutant(seed)))}\n"
        for seed in range(MUTANTS)
    ))
