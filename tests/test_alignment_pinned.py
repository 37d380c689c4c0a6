"""Alignment analysis's answers, held to the bit.

Every distinct input the repo benchmark feeds the tool (the ``bench/``
paper grid, its extended and generated populations) and every corpus
case is run through the front end, partitioning and the alignment
heuristic, and what alignment makes of it is digested per input: each
phase CAG and each class (phase indices, nodes, class candidates, and
the CAG's weights in insertion order as ``float.hex``, since their
order is the order ``total_weight`` sums them in); each phase's
candidates (alignments, provenance, partitioning blocks); and the
number of conflict resolutions.

``golden/alignment_pinned.txt`` holds one line per input, ``key
digest``; ``PINNED`` holds, per population, the sha256 of its lines.  A
population whose digest moved fails with the keys of the inputs that
moved.  The pins were taken before classes grew under one union-find
and each distinct projection was oriented once.  If the generator, a
program template or a population changes, re-pin at the parent commit
with ``PYTHONPATH=src python -m tests.test_alignment_pinned`` (from the
repo root).

Beside the pins: on 400 random sequences of phase CAGs the union-find
class builder splits classes where merging and re-checking the whole
class CAG did, with bit-equal weights in the same order; and on
erlebacher each statement is costed and dependence-tested once, and
each distinct projection oriented once.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from functools import cache

import pytest

from repro.alignment import search_space
from repro.alignment.cag import CAG
from repro.alignment.search_space import partition_classes
from repro.codegen import comm, spmd
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.tool.assistant import (
    AssistantConfig,
    run_assistant,
    stage_alignment,
    stage_frontend,
    stage_partition,
)
from repro.tool.testcases import TestCase, grid_for, source_for

from .helpers import add_edge, load_corpus
from .test_selection_pinned import (
    EXTENDED_VARIANTS,
    GENERATED_SEEDS,
    PAPER_PROGRAMS,
)

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "alignment_pinned.txt"

PINNED = {
    "paper": "689bfdeb456734ab",
    "extended": "92329ac1044a4994",
    "generated": "3addd0771e95e383",
    "corpus": "6de37111fc5e0071",
}


def populations():
    """name -> [(key, source, config)], in a fixed order."""
    paper = []
    extended = []
    for program in PAPER_PROGRAMS:
        spec = PROGRAMS[program]
        for case in grid_for(spec):
            key = f"paper/{program}/{case.dtype}/{case.n}/p{case.nprocs}"
            paper.append((key, source_for(case),
                          AssistantConfig(nprocs=case.nprocs)))
        case = TestCase(program, spec.default_size, spec.default_dtype, 0)
        for variant, (options, procs) in EXTENDED_VARIANTS.items():
            key = f"ext/{variant}/{program}/{spec.default_size}/p{procs}"
            extended.append((key, source_for(case), AssistantConfig(
                nprocs=procs, distributions=options,
            )))
    return {
        "paper": paper,
        "extended": extended,
        "generated": [
            (f"gen/{seed}/p4",
             generate_program(seed, GeneratorConfig()).source,
             AssistantConfig(nprocs=4))
            for seed in GENERATED_SEEDS
        ],
        "corpus": [
            (case.name, case.source, case.config)
            for case in load_corpus(str(HERE / "corpus"))
        ],
    }


def aligned(source, config):
    """The alignment search spaces of one input."""
    program, symbols = stage_frontend(source)
    partition, pcfg, template = stage_partition(program, symbols, config)
    return stage_alignment(partition, pcfg, symbols, template, config)


def _blocks(partitioning):
    return [sorted(block) for block in partitioning.blocks]


def _cag(h, tag, cag):
    h.update(f"{tag} nodes {sorted(cag.nodes)}\n".encode())
    for (a, b), weight in cag.weights.items():
        h.update(f"{tag} w {a} {b} {float(weight).hex()}\n".encode())


def outcome(spaces):
    """Digest of everything alignment makes of one input."""
    h = hashlib.sha256()
    for idx in sorted(spaces.phase_cags):
        _cag(h, f"phase{idx}", spaces.phase_cags[idx])
    for cls in spaces.classes:
        h.update(f"class {cls.index} {cls.phase_indices}\n".encode())
        _cag(h, cls.name, cls.cag)
        for candidate in cls.candidates:
            h.update(f"{cls.name} cand {_blocks(candidate)}\n".encode())
    for idx in sorted(spaces.per_phase):
        for c in spaces.per_phase[idx]:
            h.update(f"phase{idx} {c.alignments} {c.provenance} "
                     f"{_blocks(c.partitioning)}\n".encode())
    h.update(f"resolutions {len(spaces.resolutions)}\n".encode())
    return h.hexdigest()[:16]


@cache
def lines(population):
    """``key digest`` per input of ``population``, in order."""
    return [
        f"{key} {outcome(aligned(source, config))}"
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


def conflicted(cag):
    """The conflict test as it stood when the pins were taken: a sorted
    component holding two dimensions of one array."""
    return any(
        len({array for array, _dim in component}) < len(component)
        for component in cag.components()
    )


def merged_then_checked(order, phase_cags):
    """Step 2 as it stood when the pins were taken: each phase's CAG
    merged with a copy of the class CAG, then checked by
    :func:`conflicted`."""
    def merge(*cags):
        out = CAG()
        for cag in cags:
            out.nodes |= cag.nodes
            for key, weight in cag.weights.items():
                out.weights[key] = out.weights.get(key, 0.0) + weight
        return out

    classes = []
    for idx in order:
        if classes:
            merged = merge(classes[-1][1], phase_cags[idx])
            if not conflicted(merged):
                classes[-1] = (classes[-1][0] + [idx], merged)
                continue
        classes.append(([idx], phase_cags[idx].copy()))
    return classes


def random_phase_cags(rng):
    """A few arrays of rank 1-3 and up to eight conflict-free phase CAGs
    over them, with integral and fractional weights (a repeated edge
    accumulates)."""
    ranks = {f"a{k}": rng.randint(1, 3) for k in range(rng.randint(2, 6))}
    cags = {}
    for idx in range(rng.randint(1, 8)):
        cag = CAG()
        for array in rng.sample(sorted(ranks), rng.randint(1, len(ranks))):
            cag.add_array(array, ranks[array])
        nodes = sorted(cag.nodes)
        for _ in range(rng.randint(0, 2 * len(nodes))):
            a, b = rng.sample(nodes, 2) if len(nodes) > 1 else (None, None)
            if a is None or a[0] == b[0]:
                continue
            weight = rng.choice([float(rng.randint(1, 8) * 512),
                                 rng.uniform(0.1, 1e6)])
            trial = cag.copy()
            add_edge(trial, a, b, weight)
            if not conflicted(trial):
                cag = trial
        cags[idx] = cag
    order = list(cags)
    rng.shuffle(order)
    return order, cags


def _weights(cag):
    return [(key, float(w).hex()) for key, w in cag.weights.items()]


class TestClassBuilding:
    @pytest.mark.parametrize("seed", range(400))
    def test_union_find_splits_where_merge_does(self, seed):
        order, cags = random_phase_cags(random.Random(seed))
        built = partition_classes(order, cags)
        expected = merged_then_checked(order, cags)
        assert [c.phase_indices for c in built] == [e[0] for e in expected]
        assert [c.index for c in built] == list(range(len(expected)))
        for cls, (_indices, cag) in zip(built, expected):
            assert cls.cag.nodes == cag.nodes
            assert _weights(cls.cag) == _weights(cag)
            assert not cls.cag.has_conflict()
        merged = CAG.merge(*cags.values())
        assert merged.has_conflict() == conflicted(merged)


class TestEachPieceOnce:
    """On erlebacher, the statement work of estimation runs once per
    statement of a phase, not once per candidate, and each distinct
    projection of a class candidate is oriented once."""

    def test_erlebacher(self, monkeypatch):
        calls = {"cost": [], "deps": [], "orient": []}

        def count(module, name, kind, key):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[kind].append(key(*args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(spmd, "statement_cost", "cost", lambda stmt, *_: id(stmt))
        count(comm, "_pair_dependences", "deps",
              lambda write, read: (id(write), id(read)))
        count(search_space, "orient", "orient", lambda p, *_: p)
        result = run_assistant(
            PROGRAMS["erlebacher"].source(), AssistantConfig(nprocs=8)
        )

        phases = result.partition.phases
        statements = [s for phase in phases for s in phase.statements]
        assert sorted(calls["cost"]) == sorted(id(s[0].stmt)
                                               for s in statements)
        same_array = []
        for accesses in statements:
            writes = [a for a in accesses if a.is_write]
            same_array += [
                (id(writes[0]), id(read)) for read in accesses
                if writes and not read.is_write
                and read.array == writes[0].array
            ]
        assert sorted(calls["deps"]) == sorted(same_array)
        assert same_array
        candidates = result.layout_spaces.per_phase.values()
        assert sum(map(len, candidates)) > 2 * len(phases)

        oriented = calls["orient"]
        assert len(oriented) == len(set(oriented))
        spaces = result.alignment_spaces
        projections = sum(
            len(cls.candidates) * len(cls.phase_indices)
            for cls in spaces.classes
        )
        assert len(oriented) < projections


class TestPinnedAlignment:
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
