"""Absorbed-flow transition frequencies: the linear solve of
``selection.layout_graph`` against the packet-chasing worklist it
replaced (``worklist_oracle``) and against the numpy solve that preceded
it (``flow_oracle``), mass conservation where the worklist is only a
lower bound, the former cliff seeds, and PCFG shapes that would make a
naive ``I - Q`` singular."""

import json
import random
import time

import pytest

from repro.analysis.pcfg import ENTRY, EXIT, PCFG, PhaseGraph
from repro.frontend.symbols import ArraySymbol
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.selection.layout_graph import array_transitions, build_layout_graph
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.testcases import TestCase, grid_for, source_for

from .conftest import analyze
from .flow_oracle import numpy_absorbed_flow
from .helpers import load_corpus
from .test_selection_pinned import GENERATED_SEEDS, HERE, PAPER_PROGRAMS
from .worklist_oracle import (
    WorklistGaveUp,
    non_referencing_cycle,
    worklist_transitions,
)

#: generator seeds whose layout graph took the worklist more than 2 s
CLIFF_SEEDS = (1114, 1137, 1154, 1270)
#: the generated population compared with the worklist, array by array
ORACLE_SEEDS = range(1000, 1060)
#: packets after which the worklist is in its exponential corner
MAX_POPS = 50_000


def referencing_sets(symbols, partition):
    """``{array: phases that reference it}``, as the graph builder
    collects them."""
    referencing = {}
    for phase in partition.phases:
        for array in phase.arrays:
            if isinstance(symbols.get(array), ArraySymbol):
                referencing.setdefault(array, set()).add(phase.index)
    return referencing


def generated(seed):
    _program, symbols, partition, pcfg = analyze(
        generate_program(seed, GeneratorConfig()).source
    )
    return pcfg, referencing_sets(symbols, partition)


def assert_close(exact, oracle, rel):
    assert [(s, d) for s, d, _ in exact] == [(s, d) for s, d, _ in oracle]
    for (_, _, want), (_, _, got) in zip(exact, oracle):
        assert got == pytest.approx(want, rel=rel, abs=0.0)


def assert_conserves_mass(pcfg, refs):
    """Per source phase, absorbed + lost-at-exit == out-frequency.  The
    loss is measured by the same solve on a copy of the PCFG whose exit
    is one more referencing phase; that system keeps the phases the
    original prunes, so the shared entries cross-check the pruning."""
    sink = max(pcfg.phase_indices) + 1
    closed = hand_pcfg(
        (src, sink if dst == EXIT else dst, freq)
        for src, dst, freq in pcfg.edges()
    )
    [absorbed] = array_transitions(pcfg, {"a": refs}).values()
    [with_exit] = array_transitions(closed, {"a": refs | {sink}}).values()
    assert_close(
        absorbed, [t for t in with_exit if sink not in t[:2]], rel=1e-12
    )
    for src in refs:
        emitted = sum(pcfg.graph.succ[src].values())
        landed = sum(freq for s, _, freq in with_exit if s == src)
        assert landed == pytest.approx(emitted, rel=1e-9, abs=0.0)


class TestAgainstWorklist:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_paper_programs_agree(self, name):
        _program, symbols, partition, pcfg = analyze(PROGRAMS[name].source())
        referencing = referencing_sets(symbols, partition)
        exact = array_transitions(pcfg, referencing)
        oracle = worklist_transitions(pcfg, referencing)
        assert exact.keys() == oracle.keys()
        for array in exact:
            assert_close(exact[array], oracle[array], rel=1e-12)

    def test_generated_programs_agree_or_bound_the_worklist(self):
        acyclic = cyclic = 0
        for seed in ORACLE_SEEDS:
            pcfg, referencing = generated(seed)
            exact = array_transitions(pcfg, referencing)
            for array, refs in referencing.items():
                try:
                    [oracle] = worklist_transitions(
                        pcfg, {array: refs}, max_pops=MAX_POPS
                    ).values()
                except WorklistGaveUp:
                    continue
                if not non_referencing_cycle(pcfg, refs):
                    acyclic += 1
                    assert_close(exact[array], oracle, rel=1e-12)
                    continue
                # The epsilon cut only ever drops mass.
                cyclic += 1
                upper = {(s, d): freq for s, d, freq in exact[array]}
                for src, dst, freq in oracle:
                    assert freq <= upper[src, dst] * (1 + 1e-12)
        assert acyclic >= 50 and cyclic >= 10

    @pytest.mark.parametrize(
        "seed", [*ORACLE_SEEDS[::4], 1413, *CLIFF_SEEDS]
    )
    def test_exact_flow_conserves_mass(self, seed):
        pcfg, referencing = generated(seed)
        for refs in referencing.values():
            assert_conserves_mass(pcfg, refs)


class TestResultShape:
    def test_frequencies_are_plain_floats(self):
        # seed 1413 routes mass through a solved (numpy) block
        pcfg, referencing = generated(1413)
        transitions = array_transitions(pcfg, referencing)
        freqs = [f for edges in transitions.values() for _, _, f in edges]
        # 1.99997839 under the worklist's cut
        assert any(f == pytest.approx(2.0, rel=1e-12) for f in freqs)
        assert all(type(freq) is float for freq in freqs)
        json.dumps(transitions)

    def test_arrays_with_one_referencing_set_share_one_answer(self):
        pcfg, referencing = generated(1413)
        doubled = dict(referencing)
        doubled.update({f"{a}_twin": set(r) for a, r in referencing.items()})
        transitions = array_transitions(pcfg, doubled)
        for array in referencing:
            assert transitions[f"{array}_twin"] == transitions[array]
            assert transitions[f"{array}_twin"] is not transitions[array]


class TestFormerCliffs:
    @pytest.mark.parametrize("seed", CLIFF_SEEDS)
    def test_layout_graph_builds_in_under_100_ms(self, seed):
        result = run_assistant(
            generate_program(seed, GeneratorConfig()).source,
            AssistantConfig(nprocs=4),
        )
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            graph = build_layout_graph(
                result.partition.phases, result.pcfg, result.estimates,
                result.symbols, result.db, 4,
            )
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.1
        assert graph.transitions == result.graph.transitions


def hand_pcfg(edges):
    graph = PhaseGraph()
    graph.add_node(ENTRY)
    graph.add_node(EXIT)
    for src, dst, freq in edges:
        graph.add_edge(src, dst, freq)
    return PCFG(graph=graph, partition=None)


class TestSingularLookingSystems:
    def test_hot_self_loop_between_two_uses(self):
        # phase 1 keeps 126/127 of its mass: I - Q is 1/127 on the
        # diagonal, and all of it still arrives
        pcfg = hand_pcfg([
            (ENTRY, 0, 1.0), (0, 1, 1.0), (1, 1, 126.0), (1, 2, 1.0),
            (2, EXIT, 1.0),
        ])
        [flow] = array_transitions(pcfg, {"a": {0, 2}}).values()
        assert flow == [(0, 2, pytest.approx(1.0, rel=1e-12))]

    def test_region_that_only_reaches_the_exit(self):
        # 1 <-> 2 cycle and leave through the exit; 3 only feeds itself,
        # a closed class that a solve over every transient phase could
        # not invert
        pcfg = hand_pcfg([
            (ENTRY, 0, 1.0), (0, 1, 0.5), (0, 3, 0.25), (0, 4, 0.25),
            (1, 2, 2.0), (2, 1, 1.5), (2, EXIT, 0.5), (3, 3, 7.0),
            (4, EXIT, 0.25),
        ])
        assert array_transitions(pcfg, {"a": {0}, "b": {0, 4}}) == {
            "a": [], "b": [(0, 4, 0.25)],
        }

    def test_lossy_cycle_splits_mass_exactly(self):
        # from 1: half to 2, half back around through 3 — a geometric
        # series the worklist cut short
        pcfg = hand_pcfg([
            (ENTRY, 0, 1.0), (0, 1, 4.0), (1, 2, 1.0), (1, 3, 1.0),
            (3, 1, 3.0), (3, EXIT, 1.0), (2, EXIT, 1.0),
        ])
        [flow] = array_transitions(pcfg, {"a": {0, 2}}).values()
        # absorbed share x = 1/2 + 1/2 * 3/4 * x  =>  x = 4/5
        assert flow == [(0, 2, pytest.approx(3.2, rel=1e-12))]
        assert_conserves_mass(pcfg, {0, 2})

    def test_no_transition_where_the_pcfg_has_no_path(self):
        # 6 reaches only 5 (through 1, which keeps 126/128 of its mass);
        # partial pivoting mixes 1's row with 2's and 3's, and the bare
        # solve reports a (6, 4) share of 3.3e-16 — one more remap edge
        pcfg = hand_pcfg([
            (ENTRY, 0, 1.0), (0, 2, 1.0), (ENTRY, 6, 1.0), (6, 1, 1.0),
            (1, 1, 126.0), (1, 5, 2.0),
            (2, 1, 1.0), (2, 3, 1.0), (2, 4, 1.0),
            (3, 2, 7.0), (3, 3, 7.0), (3, 4, 1.0), (3, EXIT, 1.0),
            (4, EXIT, 1.0), (5, EXIT, 1.0),
        ])
        [flow] = array_transitions(pcfg, {"a": {0, 4, 5, 6}}).values()
        assert [(s, d) for s, d, _ in flow] == [(0, 4), (0, 5), (6, 5)]
        assert flow[2] == (6, 5, pytest.approx(1.0, rel=1e-12))
        assert_conserves_mass(pcfg, {0, 4, 5, 6})


#: the generator's scaled shape, whose seed 1003 has the 48-phase
#: selection component: only its flows are built here
SCALED = GeneratorConfig(max_arrays=8, max_phases=64, max_stmts_per_phase=3)


def bench_sources():
    """Every distinct source the repo benchmark's tool workloads
    analyse: the paper grid, the extended inputs' default sizes and the
    generated population."""
    sources = {}
    for program in PAPER_PROGRAMS:
        spec = PROGRAMS[program]
        for case in [*grid_for(spec), TestCase(
                program, spec.default_size, spec.default_dtype, 0)]:
            sources.setdefault((program, case.n, case.dtype), source_for(case))
    for seed in GENERATED_SEEDS:
        sources[seed] = generate_program(seed, GeneratorConfig()).source
    return list(sources.values())


def flow_inputs(population):
    """``(pcfg, referencing)`` of each input of ``population``, the PCFG
    built with the input's own branch probabilities."""
    if population == "bench":
        for source in bench_sources():
            yield source, AssistantConfig(nprocs=4)
    elif population == "corpus":
        for case in load_corpus(str(HERE / "corpus")):
            yield case.source, case.config
    else:
        for seed in range(1000, 1006):
            source = generate_program(seed, SCALED).source
            yield source, AssistantConfig(nprocs=4)


def random_chain(rng):
    """A PCFG of 3-40 phases with one to four out-edges each, random
    frequencies (some exact, most not) and some mass lost at the exit,
    and a random set of referencing phases."""
    n = rng.randint(3, 40)
    edges = [(ENTRY, 0, 1.0)]
    for v in range(n):
        targets = {}
        for _ in range(rng.randint(1, 4)):
            w = EXIT if rng.random() < 0.1 else rng.choice([*range(n), EXIT])
            targets[w] = targets.get(w, 0.0) + rng.choice(
                [1.0, 0.5, rng.randint(1, 9) * 1.0, rng.random() * 10]
            )
        edges.extend((v, w, freq) for w, freq in targets.items())
    refs = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
    return hand_pcfg(edges), refs


class TestAgainstNumpyOracle:
    """The plain-Python solve against the numpy one it replaced: bit for
    bit on every PCFG the tool meets, within rounding on random chains
    (the tool's own systems cannot tell LU variants apart)."""

    @pytest.mark.parametrize("population", ["bench", "corpus", "scaled"])
    def test_tool_flows_are_bitwise_the_oracles(self, population):
        arrays = 0
        for source, config in flow_inputs(population):
            _program, symbols, partition, pcfg = analyze(
                source, config.branch_probability,
                config.branch_prob_overrides,
            )
            referencing = referencing_sets(symbols, partition)
            exact = array_transitions(pcfg, referencing)
            for array, refs in referencing.items():
                oracle = numpy_absorbed_flow(pcfg.graph.succ, frozenset(refs))
                assert hexed(exact[array]) == hexed(oracle), (
                    population, array
                )
                arrays += 1
        assert arrays > 0

    def test_random_chains_agree_within_rounding(self):
        exact_bits = 0
        for seed in range(300):
            pcfg, refs = random_chain(random.Random(seed))
            [flow] = array_transitions(pcfg, {"a": refs}).values()
            oracle = numpy_absorbed_flow(pcfg.graph.succ, frozenset(refs))
            assert_close(flow, oracle, rel=1e-12)
            exact_bits += hexed(flow) == hexed(oracle)
        # rounding does differ: the chains exercise the solve's order
        assert exact_bits < 300


def hexed(transitions):
    return [(src, dst, freq.hex()) for src, dst, freq in transitions]
