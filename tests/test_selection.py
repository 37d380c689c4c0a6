"""Layout selection tests: DLG, 0-1 optimum vs brute force, baselines,
per-array transitions, restricted re-selection, deadline degradation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.layouts import (
    needs_remap,
    placement_codes,
    remapped,
)
from repro.frontend.symbols import ArraySymbol
from repro.obs import tracing
from repro.obs.events import spans_by_name
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.resilience.chaos import run_chaos
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.degrade import collecting
from repro.resilience.errors import RequestTimeout
from repro.selection import ilp as selection_ilp
from repro.selection.baselines import (
    best_static_selection,
    dp_selection,
    greedy_selection,
    static_selections,
)
from repro.selection.ilp import (
    build_selection_model,
    greedy_selection as greedy_fallback,
    select_layouts,
)
from repro.selection.layout_graph import (
    DataLayoutGraph,
    LayoutEdge,
    array_transitions,
)
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.testcases import TestCase, grid_for, source_for

from .remap_oracle import direct_edges
from .test_selection_pinned import (
    EXTENDED_VARIANTS,
    GENERATED_SEEDS,
    PAPER_PROGRAMS,
)


def make_graph(node_costs, edges):
    """Construct a DataLayoutGraph with synthetic costs (phases and
    estimates are not needed by the selection algorithms)."""
    graph = DataLayoutGraph(
        phases=[],
        pcfg=None,
        estimates=None,
        node_costs=node_costs,
        edges=[
            LayoutEdge(src_phase=p, dst_phase=q, costs=costs)
            for (p, q), costs in edges.items()
        ],
        transitions={},
    )
    return graph


def brute_force(graph):
    phases = sorted(graph.node_costs)
    options = [range(len(graph.node_costs[p])) for p in phases]
    best = None
    for combo in itertools.product(*options):
        selection = dict(zip(phases, combo))
        cost = graph.evaluate(selection)
        if best is None or cost < best[1]:
            best = (selection, cost)
    return best


class TestSelectionILP:
    def test_prefers_cheap_nodes_without_edges(self):
        graph = make_graph({0: [10.0, 1.0], 1: [5.0, 50.0]}, {})
        result = select_layouts(graph)
        assert result.selection == {0: 1, 1: 0}
        assert result.objective == 6.0

    def test_remap_cost_forces_consistency(self):
        # locally best would be (1, 0) but the remap penalty dominates
        graph = make_graph(
            {0: [10.0, 8.0], 1: [10.0, 12.0]},
            {(0, 1): {(1, 0): 100.0, (0, 1): 100.0}},
        )
        result = select_layouts(graph)
        assert result.selection in ({0: 0, 1: 0}, {0: 1, 1: 1})

    def test_remapping_chosen_when_cheap(self):
        graph = make_graph(
            {0: [10.0, 1.0], 1: [1.0, 10.0]},
            {(0, 1): {(1, 0): 2.0, (0, 1): 2.0}},
        )
        result = select_layouts(graph)
        assert result.selection == {0: 1, 1: 0}
        assert result.objective == 4.0

    def test_allowed_restriction(self):
        graph = make_graph({0: [10.0, 1.0]}, {})
        result = select_layouts(graph, allowed={0: {0}})
        assert result.selection == {0: 0}

    def test_model_size_reporting(self):
        graph = make_graph(
            {0: [1.0, 2.0], 1: [3.0, 4.0]},
            {(0, 1): {(0, 1): 5.0}},
        )
        ilp = build_selection_model(graph)
        assert ilp.num_variables == 5  # 4 x vars + 1 y var
        assert ilp.num_constraints == 3  # 2 one-of + 1 linking

    @pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
    def test_backends_agree(self, backend):
        graph = make_graph(
            {0: [3.0, 7.0], 1: [2.0, 1.0], 2: [5.0, 5.0]},
            {
                (0, 1): {(0, 1): 4.0, (1, 0): 4.0},
                (1, 2): {(0, 1): 2.0, (1, 0): 2.0},
                (2, 0): {(1, 0): 3.0},
            },
        )
        result = select_layouts(graph, backend=backend)
        _sel, expected = brute_force(graph)
        assert result.objective == pytest.approx(expected)


@st.composite
def random_graph(draw):
    n_phases = draw(st.integers(min_value=1, max_value=4))
    node_costs = {}
    for p in range(n_phases):
        k = draw(st.integers(min_value=1, max_value=3))
        node_costs[p] = [
            float(draw(st.integers(min_value=0, max_value=20)))
            for _ in range(k)
        ]
    edges = {}
    n_edges = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_edges):
        p = draw(st.integers(min_value=0, max_value=n_phases - 1))
        q = draw(st.integers(min_value=0, max_value=n_phases - 1))
        if p == q:
            continue
        costs = {}
        for i in range(len(node_costs[p])):
            for j in range(len(node_costs[q])):
                if draw(st.booleans()):
                    costs[(i, j)] = float(
                        draw(st.integers(min_value=1, max_value=15))
                    )
        if costs:
            edges.setdefault((p, q), {}).update(costs)
    return make_graph(node_costs, edges)


@settings(max_examples=60, deadline=None)
@given(graph=random_graph())
def test_ilp_matches_brute_force(graph):
    result = select_layouts(graph)
    _sel, expected = brute_force(graph)
    assert result.objective == pytest.approx(expected)


@settings(max_examples=40, deadline=None)
@given(graph=random_graph())
def test_baselines_never_beat_optimum(graph):
    optimum = select_layouts(graph).objective
    for selector in (greedy_selection, dp_selection):
        _sel, cost = selector(graph)
        assert cost >= optimum - 1e-9


class TestBaselines:
    def test_greedy_ignores_edges(self):
        graph = make_graph(
            {0: [10.0, 8.0], 1: [10.0, 12.0]},
            {(0, 1): {(1, 0): 100.0}},
        )
        sel, cost = greedy_selection(graph)
        assert sel == {0: 1, 1: 0}
        assert cost == 118.0  # honest evaluation includes the remap

    def test_dp_matches_ilp_on_generated_chains(self):
        # Differential satellite of the QA fuzzer: on straight-line
        # (chain-remap) graphs — edges only between consecutive phases —
        # the DP baseline is provably optimal, so it must equal the 0-1
        # ILP optimum on every generated instance.
        import random

        for seed in range(50):
            rng = random.Random(seed)
            n_phases = rng.randint(1, 5)
            node_costs = {
                p: [float(rng.randint(0, 20))
                    for _ in range(rng.randint(1, 3))]
                for p in range(n_phases)
            }
            edges = {}
            for p in range(n_phases - 1):
                if rng.random() < 0.3:
                    continue  # chains may skip an edge entirely
                costs = {
                    (i, j): float(rng.randint(1, 15))
                    for i in range(len(node_costs[p]))
                    for j in range(len(node_costs[p + 1]))
                    if i != j or rng.random() < 0.2
                }
                if costs:
                    edges[(p, p + 1)] = costs
            graph = make_graph(node_costs, edges)
            dp_sel, dp_cost = dp_selection(graph)
            ilp = select_layouts(graph)
            assert dp_cost == pytest.approx(ilp.objective), f"seed {seed}"
            # the DP certificate must itself evaluate to its claimed cost
            assert graph.evaluate(dp_sel) == pytest.approx(dp_cost)

    def test_dp_optimal_on_chains(self):
        graph = make_graph(
            {0: [5.0, 1.0], 1: [1.0, 5.0], 2: [5.0, 1.0]},
            {
                (0, 1): {(1, 0): 3.0, (0, 1): 3.0},
                (1, 2): {(0, 1): 3.0, (1, 0): 3.0},
            },
        )
        _dp_sel, dp_cost = dp_selection(graph)
        ilp_cost = select_layouts(graph).objective
        assert dp_cost == pytest.approx(ilp_cost)


class TestStaticBaselines:
    def test_static_selection_on_real_program(self, adi_assistant):
        graph = adi_assistant.graph
        results = static_selections(graph)
        assert len(results) == 2  # row and column schemes
        best_sel, best_cost = best_static_selection(graph)
        assert best_cost == results[0][2]
        # A static scheme pays no remapping edges.
        for edge in graph.edges:
            pair = (best_sel[edge.src_phase], best_sel[edge.dst_phase])
            assert edge.costs.get(pair, 0.0) == 0.0

    def test_optimum_not_worse_than_static(self, adi_assistant):
        _sel, static_cost = best_static_selection(adi_assistant.graph)
        assert adi_assistant.selection.objective <= static_cost + 1e-6


class TestReselect:
    def test_narrowing_chain_equals_fresh_selection(self):
        # Walk a chain of user edits, each forbidding the current
        # choice of the first phase that still has an alternative.
        result = run_assistant(
            PROGRAMS["erlebacher"].source(n=16), AssistantConfig(nprocs=4)
        )
        graph = result.graph
        allowed = {p: set(range(len(c))) for p, c in graph.node_costs.items()}
        current = result.selection
        for _ in range(3):
            target = next(
                p for p in sorted(allowed)
                if allowed[p] - {current.selection[p]}
            )
            allowed[target] = allowed[target] - {current.selection[target]}
            current = result.reselect(allowed=allowed)
            fresh = select_layouts(graph, allowed=allowed)
            assert current.selection == fresh.selection
            assert current.objective == fresh.objective
            for p, positions in allowed.items():
                assert current.selection[p] in positions


class TestDeadlineDegradation:
    def test_spent_budget_degrades_before_any_model_is_built(
        self, adi_assistant
    ):
        # an expired deadline yields a labeled greedy pass, nothing else
        graph = adi_assistant.graph
        deadline = Deadline(1e-9)
        while not deadline.expired():
            pass
        for presolve in (True, False):
            tracing.start_trace("test")
            try:
                with collecting() as notes, deadline_scope(deadline):
                    result = select_layouts(graph, presolve=presolve)
            finally:
                trace = tracing.finish_trace()
            # never a silent wrong answer: not optimal, and says so
            assert not result.optimal
            assert [(n.stage, n.reason) for n in notes] == [
                ("selection", "greedy-fallback")
            ]
            assert result.selection == greedy_fallback(graph)
            assert len(spans_by_name(trace, "selection.solve")) == 1
            assert not spans_by_name(trace, "ilp.solve")
            assert not spans_by_name(trace, "ilp.presolve")

    @pytest.mark.parametrize("budget", [None, 0.0])
    def test_emptied_phase_raises_with_or_without_budget(
        self, adi_assistant, monkeypatch, budget
    ):
        # an emptied phase is infeasible on every path: the greedy
        # fallback a spent budget takes raises as the exact paths do
        monkeypatch.setattr(selection_ilp, "remaining_budget",
                            lambda: budget)
        graph = adi_assistant.graph
        phase = sorted(graph.node_costs)[0]
        with collecting() as notes:
            for presolve in (True, False):
                with pytest.raises(RuntimeError, match="infeasible"):
                    select_layouts(graph, presolve=presolve,
                                   allowed={phase: set()})
        assert notes == []

    def test_chaos_campaign_holds_the_invariant(self):
        # Every chaos case runs the default (graph presolve) path under
        # injected faults and deadline pressure: each answer is the
        # canonical one, a labeled degradation or a typed error.
        report = run_chaos(
            cases=6, seed=321, programs=("erlebacher",),
            case_timeout_s=120.0, procs=4,
        )
        assert len(report.cases) == 6
        assert report.ok, report.summary()


class TestArrayTransitions:
    def test_transitions_skip_non_referencing_phases(self, adi_assistant):
        pcfg = adi_assistant.pcfg
        # Array 'a' is used in phases 0, 2, 3 only (init + i-sweeps);
        # its transition from phase 3 must jump directly back to 2 (via
        # the loop) and to phase 0's successors, never stopping at 4..8.
        referencing = {"a": {0, 2, 3}}
        trans = array_transitions(pcfg, referencing)["a"]
        for src, dst, freq in trans:
            assert dst in {0, 2, 3}
        pairs = {(s, d) for s, d, _ in trans}
        assert (3, 2) in pairs  # around the time loop

    def test_transition_mass_bounded_by_phase_freq(self, adi_assistant):
        pcfg = adi_assistant.pcfg
        referencing = {"x": {p.index for p in
                             adi_assistant.partition.phases}}
        trans = array_transitions(pcfg, referencing)["x"]
        out_mass = {}
        for src, _dst, freq in trans:
            out_mass[src] = out_mass.get(src, 0.0) + freq
        for src, mass in out_mass.items():
            assert mass <= pcfg.phase_frequency(src) + 1e-6

    def test_deadline_checks_leave_every_mass_bit_identical(
        self, adi_assistant
    ):
        pcfg = adi_assistant.pcfg
        referencing = {"a": {0, 2, 3}, "x": {1, 5}}
        plain = array_transitions(pcfg, referencing)
        with deadline_scope(Deadline(60.0, hard_s=60.0)):
            assert array_transitions(pcfg, referencing) == plain
        with deadline_scope(Deadline(60.0, hard_s=1e-9)):
            with pytest.raises(RequestTimeout) as err:
                array_transitions(pcfg, referencing)
        assert err.value.stopped_at == "graph.transitions"


def remap_inputs():
    """``(key, source, config)``: the ``bench/`` paper grid, its
    extended inputs and every tenth generated seed."""
    out = []
    for program in PAPER_PROGRAMS:
        spec = PROGRAMS[program]
        for case in grid_for(spec):
            out.append((f"paper/{program}/{case.n}/p{case.nprocs}",
                        source_for(case), AssistantConfig(nprocs=case.nprocs)))
        case = TestCase(program, spec.default_size, spec.default_dtype, 0)
        for variant, (options, procs) in EXTENDED_VARIANTS.items():
            out.append((f"ext/{variant}/{program}", source_for(case),
                        AssistantConfig(nprocs=procs, distributions=options)))
    for seed in GENERATED_SEEDS[::10]:
        out.append((f"gen/{seed}", generate_program(
            seed, GeneratorConfig()).source, AssistantConfig(nprocs=4)))
    return out


class TestPlacementCodes:
    """Remap edges are priced from placement codes; the codes must
    state ``needs_remap`` exactly, and the edges must be the direct
    loop's."""

    def test_codes_agree_with_needs_remap_on_every_edge_pair(self):
        pairs = sourceless = 0
        for key, source, config in remap_inputs():
            result = run_assistant(source, config)
            per_phase = result.estimates.per_phase
            arrays = {}
            for phase in result.partition.phases:
                arrays[phase.index] = [
                    a for a in phase.arrays
                    if isinstance(result.symbols.get(a), ArraySymbol)
                ]
            numbering = {}
            codes = {
                p: placement_codes(
                    [e.candidate.layout for e in per_phase[p]],
                    arrays[p], numbering,
                )
                for p in sorted(per_phase)
            }
            for array, edges in result.graph.transitions.items():
                for src, dst, _freq in edges:
                    sources = codes[src][array][0]
                    moves = remapped(sources, codes[dst][array][1])
                    for i, src_cand in enumerate(per_phase[src]):
                        sourceless += sources[i] is None
                        for j, dst_cand in enumerate(per_phase[dst]):
                            expected = needs_remap(
                                src_cand.candidate.layout,
                                dst_cand.candidate.layout, array,
                            )
                            assert (j in moves[i]) == expected, (
                                key, array, src, dst, i, j
                            )
                            pairs += 1
        assert pairs > 0
        assert sourceless > 0  # a replicated source is among them

    def test_edges_are_the_direct_loops(self):
        for key, source, config in remap_inputs():
            result = run_assistant(source, config)
            direct = direct_edges(result.graph, result.symbols, result.db,
                                  config.nprocs)
            assert [
                (e.src_phase, e.dst_phase, list(e.costs.items()))
                for e in result.graph.edges
            ] == [
                (e.src_phase, e.dst_phase, list(e.costs.items()))
                for e in direct
            ], key
