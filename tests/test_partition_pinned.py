"""Partitioning's answers, held to the bit.

Every distinct input the repo benchmark feeds the tool (the ``bench/``
paper grid, its extended and generated populations) and every corpus
case is run through the front end, partitioning and the PCFG build, and
what partitioning makes of it is digested per input: each phase with
its accesses (array, direction, statement line, affine subscripts,
enclosing loops and guard probability as ``float.hex``); the structure
tree (control loops with their trips, branches with their probability as
``float.hex``, scalar runs by their lines); and the PCFG's nodes and
edges with their ``freq`` as ``float.hex``, in graph order.

``golden/partition_pinned.txt`` holds one line per input, ``key
digest``; ``PINNED`` holds, per population, the sha256 of its lines.  A
population whose digest moved fails with the keys of the inputs that
moved.  The pins were taken before one walk settled every loop's phase
test and each distinct subscript and loop bound was put in affine form
once per program.  If the generator, a program template or a population
changes, re-pin at the parent commit with ``PYTHONPATH=src python -m
tests.test_partition_pinned`` (from the repo root).

Beside the pins: on tomcatv each distinct subscript and loop bound is
put in affine form once; on a chain of nested control loops the walk
reads each statement's expressions a bounded number of times; and two
programs that differ only in a PARAMETER share no affine form.
"""

from __future__ import annotations

import hashlib
import pathlib
from functools import cache

import pytest

from repro.analysis import references
from repro.analysis.phases import (
    Branch,
    ControlLoop,
    PhaseItem,
    ScalarItem,
    partition_phases,
)
from repro.frontend import ast, build_symbol_table, parse_source
from repro.programs import PROGRAMS
from repro.tool.assistant import stage_frontend, stage_partition

from .test_alignment_pinned import populations

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "partition_pinned.txt"

PINNED = {
    "paper": "830466429df1c3a2",
    "extended": "e13cd0808d8e9806",
    "generated": "a4895f9f36e56a27",
    "corpus": "4f0d0ab015ef24e6",
}


def _affine(sub):
    return f"{sub.coeffs}{sub.const}{'' if sub.affine else '!'}"


def _tree(h, seq, depth=0):
    pad = " " * depth
    for item in seq.items:
        if isinstance(item, PhaseItem):
            h.update(f"{pad}phase {item.phase.index}\n".encode())
        elif isinstance(item, ScalarItem):
            h.update(f"{pad}scalar {[s.line for s in item.stmts]}\n".encode())
        elif isinstance(item, ControlLoop):
            h.update(f"{pad}loop {item.var} {item.trips}\n".encode())
            _tree(h, item.body, depth + 1)
        elif isinstance(item, Branch):
            h.update(f"{pad}branch {float(item.prob).hex()}\n".encode())
            _tree(h, item.then_body, depth + 1)
            h.update(f"{pad}else\n".encode())
            _tree(h, item.else_body, depth + 1)


def outcome(partition, pcfg):
    """Digest of everything partitioning makes of one input."""
    h = hashlib.sha256()
    for phase in partition.phases:
        h.update(f"phase {phase.index} {phase.loop_var} {phase.line}\n"
                 .encode())
        for acc in phase.accesses:
            subs = " ".join(map(_affine, acc.subscripts))
            loops = [(l.var, l.lo, l.hi, l.step, l.depth) for l in acc.loops]
            h.update(f" {acc.array} {acc.is_write} {acc.stmt.line} [{subs}] "
                     f"{loops} {float(acc.guard_probability).hex()}\n"
                     .encode())
    _tree(h, partition.structure)
    for node, data in pcfg.graph.nodes(data=True):
        h.update(f"node {node} {float(data.get('freq', 0.0)).hex()}\n"
                 .encode())
    for u, v, data in pcfg.graph.edges(data=True):
        h.update(f"edge {u} {v} {float(data['freq']).hex()}\n".encode())
    return h.hexdigest()[:16]


def partitioned(source, config):
    """The phase partition and PCFG of one input."""
    program, symbols = stage_frontend(source)
    partition, pcfg, _template = stage_partition(program, symbols, config)
    return partition, pcfg


@cache
def lines(population):
    """``key digest`` per input of ``population``, in order."""
    return [
        f"{key} {outcome(*partitioned(source, config))}"
        for key, source, config in populations()[population]
    ]


def population_digest(rows):
    return hashlib.sha256("".join(f"{r}\n" for r in rows).encode()) \
        .hexdigest()[:16]


def golden():
    pins = {}
    for row in GOLDEN.read_text().split("\n"):
        if row:
            key, digest = row.split()
            pins[key] = digest
    return pins


def nested_control_loops(depth):
    """``depth`` nested control loops around one phase of one
    assignment."""
    head = "".join(f"      do t{k} = 1, 2\n" for k in range(depth))
    tail = "      enddo\n" * depth
    return (
        "program chain\n      real a(8)\n"
        f"      integer i, {', '.join(f't{k}' for k in range(depth))}\n"
        f"{head}      do i = 1, 8\n        a(i) = a(i) + 1.0\n"
        f"      enddo\n{tail}      end\n"
    )


def _partition(source):
    program = parse_source(source)
    return program, partition_phases(program, build_symbol_table(program))


class TestEachFactOnce:
    def test_one_affine_form_per_distinct_expression(self, monkeypatch):
        """On tomcatv, each distinct subscript and loop bound is put in
        affine form once, and nothing else is."""
        calls = []
        analyze = references.analyze_subscript

        def counted(expr, constants=None):
            calls.append(expr)
            return analyze(expr, constants)

        program, symbols = stage_frontend(PROGRAMS["tomcatv"].source())
        monkeypatch.setattr(references, "analyze_subscript", counted)
        partition = partition_phases(program, symbols)

        bounds = {
            expr for stmt in ast.walk_stmts(program.body)
            if isinstance(stmt, ast.Do) for expr in ast.stmt_exprs(stmt)
        }
        subscripts = {
            sub for phase in partition.phases for acc in phase.accesses
            for sub in acc.ref.subscripts
        }
        assert len(calls) == len(set(calls))
        assert set(calls) == bounds | subscripts
        assert len(calls) < sum(
            len(acc.subscripts) for p in partition.phases
            for acc in p.accesses
        )

    def test_walk_is_linear_in_nesting_depth(self, monkeypatch):
        """Each statement's expressions are read a bounded number of
        times, however deep the control loops around them nest."""
        count = [0]
        refs = ast.expr_array_refs

        def counted(expr):
            count[0] += 1
            return refs(expr)

        monkeypatch.setattr(ast, "expr_array_refs", counted)
        made = {}
        for depth in (4, 8):
            count[0] = 0
            _program, partition = _partition(nested_control_loops(depth))
            made[depth] = count[0]
            assert [p.loop_var for p in partition.phases] == ["i"]
        assert made[8] <= 2 * made[4]

    def test_no_form_outlives_its_call(self):
        """Two programs that differ only in a PARAMETER, partitioned one
        after the other, each get their own loop bounds."""
        source = (
            "program t\n      integer n\n      parameter (n = {n})\n"
            "      real a(64)\n      integer i, s\n"
            "      do s = 1, n\n      do i = 2, n - 1\n"
            "        a(i) = a(i - 1)\n      enddo\n      enddo\n      end\n"
        )
        for n in (8, 16, 8):
            _program, partition = _partition(source.format(n=n))
            loops = partition.phases[0].accesses[0].loops
            assert [(l.lo, l.hi) for l in loops] == [(2, n - 1)]
            assert partition.structure.items[0].trips == n


class TestPinnedPartition:
    @pytest.mark.parametrize("population", PINNED)
    def test_digest(self, population):
        rows = lines(population)
        if population_digest(rows) != PINNED[population]:
            pins = golden()
            moved = [
                row.split()[0] for row in rows
                if pins.get(row.split()[0]) != row.split()[1]
            ]
            pytest.fail(f"{population}: {len(moved)} inputs moved: "
                        f"{moved[:20]}")

    def test_golden_lines_are_the_pinned_ones(self):
        pins = golden()
        for population, inputs in populations().items():
            rows = [f"{key} {pins[key]}" for key, _source, _config in inputs]
            assert population_digest(rows) == PINNED[population], population


if __name__ == "__main__":  # re-pin: print the digests, rewrite the file
    every = []
    for name in populations():
        rows = lines(name)
        every += rows
        print(f"    {name!r}: {population_digest(rows)!r},")
    GOLDEN.write_text("".join(f"{row}\n" for row in every))
