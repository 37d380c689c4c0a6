"""Presolve soundness: the graph-level selection presolve, the exact
elimination of what it leaves, and their agreement with the brute-force
oracles.

The regression contract (the reason these are not approximate checks):

* every variable the presolve *fixes* carries the same value in the
  brute-force oracle's optimal certificate — presolve never cuts off the
  canonical optimum;
* the presolved solve's objective equals the unpresolved solve's
  objective exactly;
* the presolved selection path returns bitwise the selection the legacy
  full-model path returns.
"""

from __future__ import annotations

import functools
import math
import os
import random

import pytest

from repro.distribution.search_space import DistributionOptions
from repro.obs import tracing
from repro.obs.events import spans_by_name
from repro.programs import PROGRAMS
from repro.qa import load_corpus
from repro.qa.oracles import (
    MAX_SELECTION_COMBINATIONS,
    exact_best_selection,
    selection_combination_count,
)
from repro.qa.runner import _presolve_divergence, run_fuzz
from repro.resilience.deadline import Deadline
from repro.resilience.degrade import collecting
from repro.resilience.errors import DeadlineExceeded
from repro.selection import ilp as selection_ilp
from repro.selection import presolve as selection_presolve
from repro.selection.ilp import select_layouts
from repro.selection.layout_graph import DataLayoutGraph, LayoutEdge
from repro.selection.presolve import (
    TABLE_CAP,
    eliminate_component,
    presolve_selection,
)
from repro.tool.assistant import AssistantConfig, run_assistant

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


# ---------------------------------------------------------------------------
# Graph-level selection presolve (repro.selection.presolve)


def small_graphs():
    """(name, graph) pairs within the exhaustive oracle's reach."""
    out = []
    for case in CORPUS:
        result = run_assistant(case.source, case.config)
        if (selection_combination_count(result.graph)
                <= MAX_SELECTION_COMBINATIONS):
            out.append((case.name, result.graph))
    return out


class TestSelectionPresolveSoundness:
    def test_fixed_phases_match_the_oracle_certificate(self):
        checked = 0
        for name, graph in small_graphs():
            _cost, oracle_sel = exact_best_selection(graph)
            pre = presolve_selection(graph)
            for phase_index, cand in sorted(pre.fixed.items()):
                assert oracle_sel[phase_index] == cand, (
                    f"{name}: presolve fixed phase {phase_index} to "
                    f"{cand}, oracle certificate has "
                    f"{oracle_sel[phase_index]}"
                )
                checked += 1
        assert checked > 0  # the corpus must exercise the rule

    def test_presolved_objective_equals_unpresolved(self):
        for name, graph in small_graphs():
            fast = select_layouts(graph, presolve=True)
            slow = select_layouts(graph, presolve=False)
            assert fast.selection == slow.selection, name
            assert fast.objective == slow.objective, name

    def test_presolved_objective_equals_exhaustive_optimum(self):
        for name, graph in small_graphs():
            cost, oracle_sel = exact_best_selection(graph)
            fast = select_layouts(graph, presolve=True)
            assert fast.objective == cost, name
            assert fast.selection == oracle_sel, name

    def test_dee_pruning_survives_restriction(self):
        for name, graph in small_graphs():
            phases = sorted(graph.node_costs)
            allowed = {
                phases[0]: set(
                    range(len(graph.node_costs[phases[0]]))
                ),
            }
            fast = select_layouts(graph, presolve=True, allowed=allowed)
            slow = select_layouts(graph, presolve=False, allowed=allowed)
            assert fast.selection == slow.selection, name

    def test_infeasible_restriction_raises_like_the_ilp(self):
        _name, graph = small_graphs()[0]
        phase = sorted(graph.node_costs)[0]
        with pytest.raises(RuntimeError, match="infeasible"):
            select_layouts(graph, presolve=True, allowed={phase: set()})


class TestPaperProgramPaths:
    @pytest.mark.parametrize(
        "name", ["adi", "erlebacher", "tomcatv", "shallow"]
    )
    def test_fast_path_matches_legacy_bitwise(self, name):
        result = run_assistant(
            PROGRAMS[name].source(), AssistantConfig(nprocs=8)
        )
        graph = result.graph
        fast = select_layouts(graph, presolve=True)
        slow = select_layouts(graph, presolve=False)
        assert fast.selection == slow.selection
        assert fast.objective == slow.objective
        assert fast.optimal and slow.optimal


class TestEliminationFallback:
    def test_default_cap_is_generous(self):
        assert TABLE_CAP == 1 << 19  # 4 MiB of float64


def random_layout_graph(rng: random.Random) -> DataLayoutGraph:
    """3-10 phases of 2-5 candidates within brute-force reach, remap
    edges between random phase pairs, every cost from {0, 1, 2} so that
    exactly tied optima are the rule."""
    while True:
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(3, 10))]
        if math.prod(sizes) <= 2500:
            break
    node_costs = {
        p: [float(rng.randint(0, 2)) for _ in range(n)]
        for p, n in enumerate(sizes)
    }
    edges = []
    for p in range(len(sizes)):
        for q in range(p + 1, len(sizes)):
            if rng.random() < 0.45:
                src, dst = (p, q) if rng.random() < 0.5 else (q, p)
                costs = {
                    (i, j): float(cost)
                    for i in range(sizes[src]) for j in range(sizes[dst])
                    if (cost := rng.randint(0, 2))
                }
                edges.append(LayoutEdge(src, dst, costs))
    return DataLayoutGraph(
        phases=(), pcfg=None, estimates=None, node_costs=node_costs,
        edges=edges, transitions={},
    )


def live_scope_order(scopes, sizes, last=None):
    """The reference simulation of ``_elimination_order``: each step
    rebuilds every bucket as the union of the live scopes holding its
    phase."""
    live = [frozenset(scope) for scope in scopes]

    def bucket(q):
        members = frozenset().union(*(s for s in live if q in s))
        return math.prod(sizes[p] for p in members), members

    remaining = set(sizes)
    out = []
    widest, wide = 0, frozenset()
    while remaining:
        q = min(
            remaining - {last} or remaining,
            key=lambda p: (bucket(p)[0], -p),
        )
        size, members = bucket(q)
        if size > widest:
            widest, wide = size, members
        live = [s for s in live if q not in s] + [members - {q}]
        remaining.discard(q)
        out.append(q)
    return out, widest, wide


def component_problems(population):
    """``(key, scopes, sizes)`` of every distinct residual component of
    ``population`` (see ``tests/test_selection_pinned.py``), its scopes
    those :func:`eliminate_component` eliminates."""
    # imported here: that module imports this one at its top
    from .test_selection_pinned import populations

    seen = set()
    for key, thunk in populations()[population]:
        pre = presolve_selection(*thunk())
        for comp in pre.components:
            scopes = [(p,) for p in comp] + [
                (p, q) for p, q, _sub in pre.component_edges(comp)
            ]
            sizes = {p: len(pre.active[p]) for p in comp}
            shape = (tuple(scopes), tuple(sizes.items()))
            if shape not in seen:
                seen.add(shape)
                yield key, scopes, sizes


class Eliminations:
    """Counts ``_eliminate`` calls: the backtracks a solve took."""

    def __init__(self, monkeypatch):
        self.calls = 0
        eliminate = selection_presolve._eliminate

        def spy(*args):
            self.calls += 1
            return eliminate(*args)

        monkeypatch.setattr(selection_presolve, "_eliminate", spy)


class TestEliminationOrder:
    @pytest.mark.parametrize(
        "population", ["paper", "extended", "corpus", "random"]
    )
    def test_incremental_order_is_the_live_scope_simulation(
        self, population
    ):
        """The order, widest table and widest bucket match the
        reference with ``last=None`` and with every ``last=p``."""
        plan = selection_presolve._elimination_order
        components = 0
        for key, scopes, sizes in component_problems(population):
            components += 1
            for last in [None, *sorted(sizes)]:
                assert plan(scopes, sizes, last=last) == live_scope_order(
                    scopes, sizes, last=last
                ), (key, last)
        assert components > 0

    def test_a_component_takes_at_most_one_backtrack_per_phase_more(
        self, monkeypatch
    ):
        """Ties reach ascending conditioning: on the tie-heavy random
        graphs a component takes at most ``1 + len(comp)``
        eliminations, one when its first backtrack does not tie."""
        counter = Eliminations(monkeypatch)
        tied = 0
        for seed in range(200):
            pre = presolve_selection(random_layout_graph(random.Random(seed)))
            for comp in pre.components:
                before, calls = pre.tied, counter.calls
                eliminate_component(pre, comp)
                calls = counter.calls - calls
                assert 1 <= calls <= 1 + len(comp), (seed, comp)
                assert (calls > 1) == (pre.tied > before), (seed, comp)
            tied += pre.tied
        assert tied > 0

    def test_extended_bench_inputs_take_one_backtrack(self, monkeypatch):
        from .test_selection_pinned import populations  # see above

        counter = Eliminations(monkeypatch)
        inputs = populations()["extended"]
        assert len(inputs) == 12
        for key, thunk in inputs:
            pre = presolve_selection(*thunk())
            counter.calls = 0
            for comp in pre.components:
                eliminate_component(pre, comp)
            assert counter.calls == len(pre.components), key
            assert pre.tied == pre.conditioned == 0, key


class TestWidthAwareElimination:
    def test_every_order_returns_the_lexicographic_minimum(
        self, monkeypatch
    ):
        """The greedy order with its uniqueness certificate, tie
        canonicalisation and cutset conditioning (forced by shrinking
        the cap) all return the brute-force lexicographically smallest
        optimum, bitwise."""
        tie_rule = []
        plan = selection_presolve._elimination_order

        def spy(scopes, sizes, last=None):
            if last is not None:
                tie_rule.append(last)
            return plan(scopes, sizes, last=last)

        monkeypatch.setattr(selection_presolve, "_elimination_order", spy)
        rng = random.Random(1995)
        tied = conditioned = 0
        for case in range(60):
            graph = random_layout_graph(rng)
            cost, oracle = exact_best_selection(graph)
            slow = select_layouts(
                graph, presolve=False, backend="branch-bound"
            )
            assert slow.selection == oracle, case
            pre = presolve_selection(graph)
            for cap in (1, 2, 4, 8, 16, 32, 64, 128, TABLE_CAP):
                for comp in pre.components:
                    solved = eliminate_component(pre, comp, table_cap=cap)
                    assert solved == {p: oracle[p] for p in comp}, (
                        case, cap
                    )
            tied += pre.tied
            conditioned += pre.conditioned
            # end to end, with the smallest cap and the default one
            for cap in (1, TABLE_CAP):
                monkeypatch.setattr(
                    selection_ilp, "eliminate_component",
                    functools.partial(eliminate_component, table_cap=cap),
                )
                fast = select_layouts(graph, backend="branch-bound")
                assert fast.selection == oracle, (case, cap)
                assert fast.objective == cost == slow.objective
                assert fast.solution.stats.backend == "elimination"
            monkeypatch.setattr(
                selection_ilp, "eliminate_component",
                functools.partial(eliminate_component, table_cap=0),
            )
            if pre.components:
                with pytest.raises(ValueError, match="table_cap"):
                    select_layouts(graph)
        # the generator must reach the tie rule and cutset conditioning
        assert tied > 0
        assert tie_rule
        assert conditioned > 0

    @pytest.mark.parametrize("seed,cap", [(36, 8), (74, 16), (493, 4)])
    def test_tie_rule_overflow_is_conditioned(self, seed, cap, monkeypatch):
        """A ``last=`` order of the tie rule that overflows the cap
        hands the phases it has not fixed to cutset conditioning."""
        overflowed = []
        condition = selection_presolve._condition

        def spy(pre, factors, sizes, table_cap, last):
            overflowed.append(last)
            return condition(pre, factors, sizes, table_cap, last)

        monkeypatch.setattr(selection_presolve, "_condition", spy)
        graph = random_layout_graph(random.Random(seed))
        _cost, oracle = exact_best_selection(graph)
        pre = presolve_selection(graph)
        for comp in pre.components:
            solved = eliminate_component(pre, comp, table_cap=cap)
            assert solved == {p: oracle[p] for p in comp}
        assert any(last is not None for last in overflowed)
        assert pre.conditioned > 0

    @pytest.mark.parametrize("name", ["tomcatv", "shallow"])
    def test_extended_space_needs_no_solver(self, name):
        config = AssistantConfig(
            nprocs=2, distributions=DistributionOptions.extended()
        )
        tracing.start_trace("test")
        try:
            result = run_assistant(PROGRAMS[name].source(), config)
        finally:
            trace = tracing.finish_trace()
        assert result.selection.solution.stats.backend == "elimination"
        (span,) = [
            span for span in spans_by_name(trace, "ilp.presolve")
            if span["attrs"]["name"] == "layout-selection"
        ]
        attrs = span["attrs"]
        assert attrs["components"] > 0
        assert attrs["tied"] == attrs["conditioned"] == attrs["cutset"] == 0
        assert 0 < attrs["max_table"] <= TABLE_CAP
        slow = select_layouts(result.graph, presolve=False)
        assert result.selection.selection == slow.selection
        assert result.selection.objective == slow.objective

    def test_deadline_between_buckets_degrades_to_greedy(
        self, adi_assistant, monkeypatch
    ):
        # The budget runs out at the first elimination bucket, after
        # the entry check and the presolve have passed.
        monkeypatch.setattr(
            selection_presolve, "current_deadline",
            lambda: Deadline(1e-9),
        )
        with collecting() as notes:
            result = select_layouts(adi_assistant.graph)
        assert not result.optimal
        assert [(n.stage, n.reason) for n in notes] == [
            ("selection", "greedy-fallback")
        ]
        assert "elimination" in notes[0].detail

    def test_deadline_during_conditioning_keeps_the_incumbent(
        self, monkeypatch
    ):
        # cap 1 conditions on all three phases; the budget runs out at
        # the fourth bucket, after the first assignment's three
        result, notes = conditioned_under_countdown(monkeypatch, 3)
        assert [(n.stage, n.reason) for n in notes] == [
            ("selection", "incumbent")
        ]
        assert not result.optimal
        assert result.solution.status == "time_limit"
        assert result.solution.stats.backend == "elimination"
        assert result.selection == {0: 0, 1: 0, 2: 0}
        assert result.objective == 3.0  # the optimum, all ones, costs 0

    def test_deadline_before_any_assignment_degrades_to_greedy(
        self, monkeypatch
    ):
        result, notes = conditioned_under_countdown(monkeypatch, 0)
        assert [(n.stage, n.reason) for n in notes] == [
            ("selection", "greedy-fallback")
        ]
        assert not result.optimal
        assert result.selection == {0: 1, 1: 1, 2: 1}


class Countdown:
    """A request deadline whose budget runs out after ``checks``
    checks."""

    def __init__(self, checks):
        self.left = checks

    def check(self, label=""):
        self.left -= 1
        if self.left < 0:
            raise DeadlineExceeded(f"budget spent at {label}")


def conditioned_under_countdown(monkeypatch, checks):
    """Select over a three-phase chain that prefers candidate 1
    everywhere, every table capped at one element so that each
    assignment of the cutset is a separate solve, under a
    :class:`Countdown` deadline."""
    graph = DataLayoutGraph(
        phases=(), pcfg=None, estimates=None,
        node_costs={p: [1.0, 0.0] for p in range(3)},
        edges=[LayoutEdge(0, 1, differ_costs(2, 2)),
               LayoutEdge(1, 2, differ_costs(2, 2))],
        transitions={},
    )
    countdown = Countdown(checks)
    monkeypatch.setattr(
        selection_presolve, "current_deadline", lambda: countdown
    )
    monkeypatch.setattr(
        selection_ilp, "eliminate_component",
        functools.partial(eliminate_component, table_cap=1),
    )
    with collecting() as notes:
        result = select_layouts(graph)
    return result, notes


def differ_costs(rows, cols):
    """A remap matrix charging 1 whenever the two positions differ."""
    return {(i, j): 1.0 for i in range(rows) for j in range(cols) if i != j}


def presolve_span_attrs(graph):
    # a synthetic graph has no estimates to record provenance from
    with tracing.activate(tracing.Tracer(detail=False)) as tracer:
        select_layouts(graph)
    (span,) = spans_by_name(tracer.to_dict(), "ilp.presolve")
    return span["attrs"]


class TestDirtySet:
    def test_nothing_prunable_is_one_pass(self):
        # a chain of two-candidate phases that each prefer their
        # neighbour's choice, plus a singleton phase conditioned into one
        graph = DataLayoutGraph(
            phases=(), pcfg=None, estimates=None,
            node_costs={0: [0.0, 0.0], 1: [0.0, 0.0], 2: [5.0],
                        3: [0.0, 0.0]},
            edges=[LayoutEdge(0, 1, differ_costs(2, 2)),
                   LayoutEdge(1, 2, {(0, 0): 1.0}),
                   LayoutEdge(1, 3, differ_costs(2, 2))],
            transitions={},
        )
        pre = presolve_selection(graph)
        assert pre.pruned == 0 and pre.fixed == {2: 0}
        assert pre.checks == 3  # the multi-candidate phases, once each
        attrs = presolve_span_attrs(graph)
        assert (attrs["checks"], attrs["pruned"]) == (3, 0)

    def test_one_prune_rechecks_only_its_neighbours(self):
        # phase 3 drops its dear third candidate, which remaps like its
        # first; phases 1 and 2 read phase 3 and are checked again,
        # phase 0 and phase 3 itself are not
        dear = {(0, 1): 1.0, (1, 0): 1.0, (2, 1): 1.0}
        graph = DataLayoutGraph(
            phases=(), pcfg=None, estimates=None,
            node_costs={0: [0.0, 0.0], 1: [0.0, 0.0], 2: [0.0, 0.0],
                        3: [0.0, 0.0, 100.0]},
            edges=[LayoutEdge(0, 1, differ_costs(2, 2)),
                   LayoutEdge(3, 1, dear),
                   LayoutEdge(3, 2, dear)],
            transitions={},
        )
        pre = presolve_selection(graph)
        assert pre.pruned == 1 and pre.active[3] == [0, 1]
        assert pre.checks == 4 + 2
        assert presolve_span_attrs(graph)["checks"] == 6
        cost, oracle = exact_best_selection(graph)
        fast = select_layouts(graph)
        assert (fast.selection, fast.objective) == (oracle, cost)


class TestFuzzWiring:
    def test_selection_presolve_check_is_registered(self):
        report = run_fuzz(
            seed=910, cases=5, checks=["selection-presolve"]
        )
        assert report.ok, report.summary()
        assert report.checks_run.get("selection-presolve") == 5

    def test_check_replays_the_corpus_under_small_table_caps(self):
        # includes the extended() seed, whose residual component the
        # caps below 32 condition on cutsets of two and three phases
        for case in CORPUS:
            result = run_assistant(case.source, case.config)
            assert _presolve_divergence(result, "scipy") is None, case.name
