"""Layout selection's answers, held to the bit.

Every distinct input the repo benchmark feeds the tool (the ``bench/``
paper grid, its extended and generated populations), every corpus case,
and 200 seeded random layout graphs (each with and without a random
``allowed`` restriction) are analysed, and what selection makes of them
is pinned per input in two columns.  The *answer* digest covers the
graph presolve's ``fixed``, ``active``, ``pruned`` and ``components``;
the survivors' conditioned node costs and every residual component edge
as ``float.hex``; and what elimination and ``select_layouts`` select,
with the objective.  The *width* column is the largest elimination
table built (``max_table``), which depends on the elimination order
alone: an order change that moves widths and no answer fails only
``test_widths``.

``golden/selection_pinned.txt`` holds one line per input, ``key digest
max_table``; ``PINNED`` holds, per population, the sha256 of its ``key
digest`` lines and ``WIDTHS`` that of its ``key max_table`` lines.  A
population whose pin moved fails with the keys of the inputs that
moved.  The answer pins were taken before the presolve kept its state
over the surviving candidates only and re-checked a phase only when its
neighbourhood changed; the width pins when elimination went from
descending-order-first to the greedy min-table order alone, which moved
widths only.  If the generator, a program template or a
population changes, re-pin at the parent commit with
``PYTHONPATH=src python -m tests.test_selection_pinned`` (from the repo
root: the random graphs come from ``tests/test_ilp_presolve.py``).
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from functools import cache

import pytest

from repro.distribution.search_space import DistributionOptions
from repro.programs import PROGRAMS
from repro.qa import load_corpus
from repro.qa.generator import GeneratorConfig, generate_program
from repro.selection.ilp import select_layouts
from repro.selection.presolve import eliminate_component, presolve_selection
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.testcases import TestCase, grid_for, source_for

from .test_ilp_presolve import random_layout_graph

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "selection_pinned.txt"

PAPER_PROGRAMS = ("adi", "erlebacher", "shallow", "tomcatv")
#: the repo benchmark's generated population: seeds 1000..1299 but four,
#: plus five heavier ones, at 4 processors
GENERATED_SEEDS = [
    s for s in range(1000, 1300) if s not in (1114, 1137, 1154, 1270)
] + [1334, 1413, 1642, 1688, 1968]
#: the repo benchmark's widened search spaces and their processor counts
EXTENDED_VARIANTS = {
    "cyclic": (DistributionOptions(one_dim_cyclic=True), 4),
    "grids": (DistributionOptions(multi_dim_grids=True), 4),
    "extended": (DistributionOptions.extended(), 2),
}
RANDOM_SEEDS = range(200)

#: per population, sha256 of its ``key answer-digest`` lines
PINNED = {
    "paper": "2c2715b22c243ee6",
    "extended": "7f49b7f84955d744",
    "generated": "ee83573e3b6ebbeb",
    "corpus": "190383f215e41ebe",
    "random": "19647133a405609d",
}
#: per population, sha256 of its ``key max_table`` lines
WIDTHS = {
    "paper": "bffbc2cda2ea745c",
    "extended": "db8b8295b8eff475",
    "generated": "ae21082140738a74",
    "corpus": "e00d7c981a715422",
    "random": "3a4479ea2c4ca140",
}


def _analysed(source, config):
    return run_assistant(source, config).graph


def populations():
    """name -> [(key, thunk returning ``(graph, allowed)``)], in a fixed
    order; a thunk analyses its input only when called."""
    paper = []
    for program in PAPER_PROGRAMS:
        for case in grid_for(PROGRAMS[program]):
            key = f"paper/{program}/{case.dtype}/{case.n}/p{case.nprocs}"
            paper.append((key, case))
    extended = []
    for program in PAPER_PROGRAMS:
        spec = PROGRAMS[program]
        case = TestCase(program, spec.default_size, spec.default_dtype, 0)
        for variant, (options, procs) in EXTENDED_VARIANTS.items():
            key = f"ext/{variant}/{program}/{spec.default_size}/p{procs}"
            extended.append((key, case, options, procs))
    return {
        "paper": [
            (key, lambda case=case: (_analysed(
                source_for(case), AssistantConfig(nprocs=case.nprocs)
            ), None))
            for key, case in paper
        ],
        "extended": [
            (key, lambda case=case, options=options, procs=procs: (
                _analysed(source_for(case), AssistantConfig(
                    nprocs=procs, distributions=options,
                )), None))
            for key, case, options, procs in extended
        ],
        "generated": [
            (f"gen/{seed}/p4", lambda seed=seed: (_analysed(
                generate_program(seed, GeneratorConfig()).source,
                AssistantConfig(nprocs=4),
            ), None))
            for seed in GENERATED_SEEDS
        ],
        "corpus": [
            (case.name, lambda case=case: (
                _analysed(case.source, case.config), None))
            for case in load_corpus(str(HERE / "corpus"))
        ],
        "random": [
            (f"random/{seed}{'/allowed' if restrict else ''}",
             lambda seed=seed, restrict=restrict: random_case(seed, restrict))
            for seed in RANDOM_SEEDS for restrict in (False, True)
        ],
    }


def random_case(seed, restrict):
    """A random layout graph and, with ``restrict``, a random non-empty
    ``allowed`` subset for about half of its phases."""
    graph = random_layout_graph(random.Random(seed))
    if not restrict:
        return graph, None
    rng = random.Random(f"selection-allowed:{seed}")
    allowed = {}
    for p, costs in sorted(graph.node_costs.items()):
        if rng.random() < 0.5:
            allowed[p] = set(rng.sample(
                range(len(costs)), rng.randint(1, len(costs))
            ))
    return graph, allowed


def _hex(values):
    return " ".join(float(x).hex() for x in values)


def outcome(graph, allowed):
    """Digest of the answers presolve and selection make of one input,
    and the largest elimination table built for them."""
    pre = presolve_selection(graph, allowed=allowed)
    h = hashlib.sha256()
    h.update(f"fixed {sorted(pre.fixed.items())}\n".encode())
    h.update(f"active {sorted(pre.active.items())}\n".encode())
    h.update(f"pruned {pre.pruned} components {pre.components}\n".encode())
    for p in sorted(pre.active):
        h.update(f"node {p} {_hex(pre.node[p])}\n".encode())
    for comp in pre.components:
        for p, q, sub in pre.component_edges(comp):
            h.update(f"edge {p} {q} {sub.shape} {_hex(sub.flat)}\n".encode())
        solved = eliminate_component(pre, comp)
        h.update(f"solved {sorted((solved or {}).items())}\n".encode())
    result = select_layouts(graph, allowed=allowed)
    h.update(f"selection {sorted(result.selection.items())} "
             f"{float(result.objective).hex()}\n".encode())
    return h.hexdigest()[:16], pre.max_table


@cache
def lines(population):
    """``(key, (answer digest, max_table))`` per input of
    ``population``, in order."""
    return [
        (key, outcome(*thunk()))
        for key, thunk in populations()[population]
    ]


def population_digest(rows):
    """sha256 of ``key value`` lines, one per ``(key, value)`` row."""
    text = "".join(f"{key} {value}\n" for key, value in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden():
    """key -> ``(answer digest, max_table)``, as the golden file holds
    them."""
    pins = {}
    for row in GOLDEN.read_text().split("\n"):
        if row:
            key, digest, width = row.split()
            pins[key] = (digest, int(width))
    return pins


def column_rows(population, column):
    """``(key, value)`` of column 0 (answer digest) or 1 (max_table)."""
    return [(key, values[column]) for key, values in lines(population)]


def check(population, pinned, column):
    """Fail with the inputs that moved when ``population``'s ``column``
    misses its pin in ``pinned``."""
    rows = column_rows(population, column)
    if population_digest(rows) != pinned[population]:
        pins = golden()
        moved = [
            f"{key} {pins.get(key, (None, None))[column]}->{value}"
            for key, value in rows
            if pins.get(key, (None, None))[column] != value
        ]
        pytest.fail(f"{population}: {len(moved)} inputs moved: "
                    f"{moved[:20]}")


class TestPinnedSelection:
    @pytest.mark.parametrize("population", PINNED)
    def test_digest(self, population):
        check(population, PINNED, 0)

    @pytest.mark.parametrize("population", WIDTHS)
    def test_widths(self, population):
        check(population, WIDTHS, 1)

    def test_golden_lines_are_the_pinned_ones(self):
        pins = golden()
        for population, thunks in populations().items():
            for pinned, column in ((PINNED, 0), (WIDTHS, 1)):
                rows = [(key, pins[key][column]) for key, _thunk in thunks]
                assert population_digest(rows) == pinned[population], (
                    population, column
                )


if __name__ == "__main__":  # re-pin: print the digests, rewrite the file
    for pinned, column in (("PINNED", 0), ("WIDTHS", 1)):
        print(f"{pinned} = {{")
        for name in populations():
            digest = population_digest(column_rows(name, column))
            print(f"    {name!r}: {digest!r},")
        print("}")
    GOLDEN.write_text("".join(
        f"{key} {digest} {width}\n"
        for name in populations()
        for key, (digest, width) in lines(name)
    ))
