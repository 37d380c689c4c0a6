"""Differential-oracle tests: brute force vs ILP on both NP-complete
cores, plus the mutation tests proving the oracles catch injected bugs."""

import dataclasses

import pytest

from repro.alignment import enumeration
from repro.alignment.cag import CAG
from repro.alignment.ilp import build_alignment_model
from repro.alignment.weights import build_phase_cag
from repro.frontend.printer import format_program
from repro.qa.generator import GeneratorConfig, generate_program
from repro.qa.minimize import minimize_program
from repro.qa.oracles import (
    Divergence,
    alignment_assignment_count,
    best_alignment,
    check_alignment,
    check_resolution,
    check_selection,
    enumerate_alignments,
    satisfied_weight,
    selection_combination_count,
)
from repro.selection.ilp import build_selection_model
from repro.selection.layout_graph import DataLayoutGraph, LayoutEdge
from repro.tool.assistant import AssistantConfig, run_assistant

from .helpers import add_edge


def make_graph(node_costs, edges):
    return DataLayoutGraph(
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


def make_cag(ranks, edges):
    """ranks: {array: rank}; edges: {((a, da), (b, db)): weight}."""
    cag = CAG()
    for array, rank in ranks.items():
        cag.add_array(array, rank)
    for (a, b), weight in edges.items():
        add_edge(cag, a, b, weight)
    return cag


class TestAlignmentEnumeration:
    def test_assignment_count_matches_enumeration(self):
        cag = make_cag({"a": 2, "b": 1}, {})
        count = alignment_assignment_count(cag, 2)
        assert count == len(list(enumerate_alignments(cag, 2)))
        assert count == 2 * 2  # P(2,2) * P(2,1)

    def test_enumeration_is_injective_per_array(self):
        cag = make_cag({"a": 2}, {})
        for assignment in enumerate_alignments(cag, 2):
            assert assignment[("a", 0)] != assignment[("a", 1)]

    def test_best_alignment_prefers_heavy_edge(self):
        # a0-b0 weight 5 vs a1-b0 weight 1: the optimum satisfies the 5.
        cag = make_cag(
            {"a": 2, "b": 1},
            {(("a", 0), ("b", 0)): 5.0, (("a", 1), ("b", 0)): 1.0},
        )
        value, assignment = best_alignment(cag, 2)
        assert value == 5.0
        assert assignment[("a", 0)] == assignment[("b", 0)]

    def test_satisfied_weight_counts_colocated_edges_only(self):
        cag = make_cag(
            {"a": 1, "b": 1}, {(("a", 0), ("b", 0)): 3.0}
        )
        assert satisfied_weight(cag, {("a", 0): 0, ("b", 0): 0}) == 3.0
        assert satisfied_weight(cag, {("a", 0): 0, ("b", 0): 1}) == 0.0


@pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
class TestOracleAgreement:
    def test_alignment_agrees_on_synthetic_cags(self, backend):
        cag = make_cag(
            {"a": 2, "b": 2, "c": 1},
            {
                (("a", 0), ("b", 0)): 4.0,
                (("a", 1), ("b", 1)): 2.0,
                (("a", 0), ("b", 1)): 3.0,
                (("b", 0), ("c", 0)): 1.0,
            },
        )
        assert check_alignment(cag, 2, backend=backend) is None

    def test_selection_agrees_on_synthetic_graphs(self, backend):
        graph = make_graph(
            {0: [3.0, 7.0], 1: [2.0, 1.0], 2: [5.0, 5.0]},
            {
                (0, 1): {(0, 1): 4.0, (1, 0): 4.0},
                (1, 2): {(0, 1): 2.0, (1, 0): 2.0},
            },
        )
        assert check_selection(graph, backend=backend) is None

    def test_agreement_on_generated_programs(self, backend):
        config = AssistantConfig(nprocs=4, ilp_backend=backend)
        for seed in range(6):
            case = generate_program(seed)
            result = run_assistant(case.source, config)
            d = result.template.rank
            for phase in result.partition.phases:
                cag = build_phase_cag(phase, result.symbols)
                divergence = check_alignment(cag, d, backend=backend)
                assert divergence is None, f"seed {seed}: {divergence}"
            divergence = check_selection(result.graph, backend=backend)
            assert divergence is None, f"seed {seed}: {divergence}"


class TestOracleScopeGuards:
    def test_oversized_selection_is_skipped(self):
        # 20 phases x 3 candidates >> the combination limit: the oracle
        # must decline rather than hang.
        graph = make_graph(
            {p: [1.0, 2.0, 3.0] for p in range(20)}, {}
        )
        assert selection_combination_count(graph) > 50_000
        assert check_selection(graph) is None

    def test_invalid_rank_instances_are_skipped(self):
        cag = make_cag({"a": 3}, {})
        assert check_alignment(cag, d=2) is None  # dim 2 >= d


def first_optimum_only(cag, d, cap, real=enumeration.enumerate_optimum):
    """A wrong direct solver: what non-strict pruning does — a branch
    that merely ties the incumbent is dropped, so the enumeration sees
    one optimum where there are several and answers on its own."""
    return dataclasses.replace(real(cag, d, cap), optima=1)


class TestMutationKilling:
    """A deliberately injected objective-coefficient bug must be caught
    by the differential oracle (the PR's acceptance criterion)."""

    def test_selection_objective_bug_is_caught(self):
        graph = make_graph({0: [1.0, 10.0], 1: [2.0, 20.0]}, {})

        def corrupted(g):
            ilp = build_selection_model(g)
            # Make the genuinely-cheap candidate look expensive: the ILP
            # now returns a certificate the evaluator refutes.
            ilp.model.set_objective_coeff("x:0:0", 100.0)
            return ilp

        divergence = check_selection(graph, build=corrupted)
        assert isinstance(divergence, Divergence)
        assert divergence.kind == "selection"
        assert "suboptimal" in divergence.detail
        # and the pristine model still passes
        assert check_selection(graph) is None

    def test_selection_edge_cost_bug_is_caught(self):
        graph = make_graph(
            {0: [5.0, 5.5], 1: [5.0, 5.5]},
            {(0, 1): {(0, 1): 3.0, (1, 0): 3.0}},
        )

        def corrupted(g):
            ilp = build_selection_model(g)
            for var in ilp.model.variables:
                if var.startswith("y:"):
                    ilp.model.set_objective_coeff(var, -50.0)
            return ilp

        divergence = check_selection(graph, build=corrupted)
        assert isinstance(divergence, Divergence)

    def test_alignment_objective_bug_is_caught(self):
        cag = make_cag(
            {"a": 2, "b": 2},
            {(("a", 0), ("b", 0)): 5.0, (("a", 1), ("b", 0)): 1.0},
        )

        def corrupted(c, d):
            ilp = build_alignment_model(c, d)
            # Invert the weight ordering seen by the ILP only: brute
            # force still maximizes the true satisfied weight.
            for var, coeff in list(ilp.model.objective.items()):
                ilp.model.set_objective_coeff(var, -2.0 * coeff)
            return ilp

        divergence = check_alignment(cag, 2, build=corrupted)
        assert isinstance(divergence, Divergence)
        assert divergence.kind == "alignment"
        assert check_alignment(cag, 2) is None

    def test_direct_solver_that_drops_a_tie_is_caught(self, monkeypatch):
        # b0 is pulled equally toward both dimensions of a: two optimal
        # cuts, so the choice belongs to the solver.
        cag = make_cag(
            {"a": 2, "b": 1},
            {(("a", 0), ("b", 0)): 2.0, (("a", 1), ("b", 0)): 2.0},
        )
        assert check_resolution(cag, 2) is None
        monkeypatch.setattr(
            enumeration, "enumerate_optimum", first_optimum_only
        )
        divergence = check_resolution(cag, 2)
        assert isinstance(divergence, Divergence)
        assert "tie" in divergence.detail

    def test_direct_solver_that_ignores_type2_across_components_is_caught(
        self, monkeypatch
    ):
        # a0 and a1 lie in different edge-components and both would
        # like partition 0; only type 2 couples them.
        cag = make_cag(
            {"a": 2, "b": 2, "c": 2},
            {(("a", 0), ("b", 0)): 5.0, (("a", 1), ("c", 0)): 3.0},
        )
        assert check_resolution(cag, 2) is None
        real = enumeration.enumerate_optimum

        def per_edge_component(whole, d, cap):
            assignment = {}
            for component in whole.components():
                part = CAG(nodes=set(component), weights={
                    key: w for key, w in whole.weights.items()
                    if key[0] in component
                })
                assignment.update(real(part, d, cap).assignment)
            return enumeration.Enumeration(assignment, visited=1, optima=1)

        monkeypatch.setattr(
            enumeration, "enumerate_optimum", per_edge_component
        )
        divergence = check_resolution(cag, 2)
        assert isinstance(divergence, Divergence)
        assert "two dimensions of one array" in divergence.detail

    def test_resolution_check_runs_under_the_fuzz_alignment_oracle(
        self, monkeypatch
    ):
        from repro.qa.runner import run_fuzz

        clean = run_fuzz(cases=30, seed=1000, checks=["alignment-oracle"],
                         minimize=False)
        assert clean.ok, clean.summary()
        monkeypatch.setattr(
            enumeration, "enumerate_optimum", first_optimum_only
        )
        broken = run_fuzz(cases=30, seed=1000, checks=["alignment-oracle"],
                          minimize=False)
        assert not broken.ok
        assert all(f.check == "alignment-oracle" for f in broken.failures)


class TestGeneratorDeterminism:
    def test_same_seed_same_program(self):
        a = generate_program(7)
        b = generate_program(7)
        assert a.source == b.source
        assert a.program == b.program

    def test_distinct_seeds_vary(self):
        sources = {generate_program(seed).source for seed in range(12)}
        assert len(sources) > 6

    def test_small_clamps_config(self):
        config = GeneratorConfig(max_arrays=8, max_rank=5, max_phases=9)
        small = config.small()
        assert (small.max_arrays, small.max_rank, small.max_phases) \
            == (3, 3, 4)


class TestMinimizer:
    def test_shrinks_to_the_failing_kernel(self):
        # Predicate: the program still references array 'b'.  Minimizing
        # under it must strip every other phase and the unused arrays.
        from repro.frontend import ast

        case = generate_program(9, GeneratorConfig(max_arrays=3))

        def references_b(program):
            for stmt in ast.walk_stmts(program.body):
                for expr in ast.stmt_exprs(stmt):
                    for node in ast.walk_expr(expr):
                        if isinstance(node, ast.ArrayRef) \
                                and node.name == "b":
                            return True
            return False

        assert references_b(case.program)
        minimized = minimize_program(case.program, references_b)
        assert references_b(minimized)
        body_stmts = list(ast.walk_stmts(minimized.body))
        assert len(body_stmts) <= len(list(ast.walk_stmts(case.program.body)))
        # exactly one assignment survives greedy single-deletion
        assigns = [s for s in body_stmts if isinstance(s, ast.Assign)]
        assert len(assigns) == 1

    def test_non_reproducing_input_returned_unchanged(self):
        case = generate_program(1)
        assert minimize_program(case.program, lambda p: False) \
            is case.program

    def test_minimized_program_still_prints_and_parses(self):
        from repro.frontend import ast
        from repro.frontend.parser import parse_source

        case = generate_program(9)
        minimized = minimize_program(
            case.program,
            lambda p: any(
                isinstance(s, ast.Do) for s in ast.walk_stmts(p.body)
            ),
        )
        reparsed = parse_source(format_program(minimized))
        assert reparsed.name == minimized.name
