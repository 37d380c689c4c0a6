"""Alignment 0-1 formulation tests — including the paper's appendix
example (Figure 8), backend cross-checks, and the solver-free direct
path of ``resolve_conflicts`` against its model-and-solver reference."""

import random

import pytest

from repro.alignment import enumeration
from repro.alignment.cag import CAG
from repro.alignment.enumeration import enumerate_optimum
from repro.alignment.ilp import (
    ENUMERATION_BACKEND,
    build_alignment_model,
    model_size,
    resolve_conflicts,
)
from repro.obs import tracing
from repro.obs.events import spans_by_name
from repro.programs.registry import PROGRAMS
from repro.qa.oracles import (
    enumerate_alignments,
    optimal_cuts,
    satisfied_weight,
)
from repro.resilience import faults
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.tool.assistant import AssistantConfig, run_assistant

from .helpers import add_edge


def aligned(res, a, b):
    """Whether the resolution puts ``a`` and ``b`` in one component."""
    return any({a, b} <= block for block in res.partitioning.blocks)


def figure8_cag():
    """The appendix example: two 2-D arrays x, y with a conflicting CAG.

    Edges (x0, y0), (x1, y0), (x1, y1): y0 reachable from both x0 and x1
    connects two dimensions of x — a conflict requiring a minimum-weight
    2-partitioning.
    """
    cag = CAG()
    cag.add_array("x", 2)
    cag.add_array("y", 2)
    add_edge(cag, ("x", 0), ("y", 0), 10.0)
    add_edge(cag, ("x", 1), ("y", 0), 4.0)
    add_edge(cag, ("x", 1), ("y", 1), 10.0)
    return cag


class TestModelStructure:
    def test_variable_count(self):
        ilp = build_alignment_model(figure8_cag(), d=2)
        # 4 nodes x 2 partitions + 3 edges x 2 partitions = 14
        assert ilp.num_variables == 14

    def test_constraint_count(self):
        ilp = build_alignment_model(figure8_cag(), d=2)
        # type1: 4; type2: 2 arrays x 2 partitions = 4;
        # IN/OUT: number of nonempty SRC/SINK sets x d.
        # Normalized direction x->y: SINK sets: (x0,y)={x0y0}, (x1,y)=
        # {x1y0, x1y1}; SRC sets: (y0,x)={x0y0,x1y0}, (y1,x)={x1y1}
        # => 4 groups x 2 = 8 edge constraints. Total 16.
        assert ilp.num_constraints == 16

    def test_rank_check(self):
        cag = CAG()
        cag.add_array("a", 3)
        with pytest.raises(ValueError):
            build_alignment_model(cag, d=2)


@pytest.mark.parametrize("backend", ["scipy", "branch-bound"])
class TestResolution:
    def test_figure8_optimal_cut(self, backend):
        """The optimal 2-partitioning cuts only the weight-4 edge."""
        res = resolve_conflicts(figure8_cag(), d=2, backend=backend)
        assert res.cut_weight == pytest.approx(4.0)
        assert not res.resolved.has_conflict()
        assert aligned(res, ("x", 0), ("y", 0))
        assert aligned(res, ("x", 1), ("y", 1))
        assert not aligned(res, ("x", 1), ("y", 0))

    def test_conflict_free_cag_keeps_everything(self, backend):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 3.0)
        add_edge(cag, ("a", 1), ("b", 1), 5.0)
        res = resolve_conflicts(cag, d=2, backend=backend)
        assert res.cut_weight == 0.0
        assert res.resolved.num_edges == 2

    def test_triangle_conflict_cuts_cheapest(self, backend):
        # a0-b0 (8), b0-a1 (2): must cut one; cheapest is 2.
        cag = CAG()
        cag.add_array("a", 2)
        add_edge(cag, ("a", 0), ("b", 0), 8.0)
        add_edge(cag, ("b", 0), ("a", 1), 2.0)
        res = resolve_conflicts(cag, d=2, backend=backend)
        assert res.cut_weight == pytest.approx(2.0)

    def test_weights_flip_the_choice(self, backend):
        cag = CAG()
        cag.add_array("a", 2)
        add_edge(cag, ("a", 0), ("b", 0), 2.0)
        add_edge(cag, ("b", 0), ("a", 1), 8.0)
        res = resolve_conflicts(cag, d=2, backend=backend)
        assert res.cut_weight == pytest.approx(2.0)
        assert aligned(res, ("a", 1), ("b", 0))

    def test_three_dimensional_template(self, backend):
        # 1-D coefficient array pulled toward two dims of a 3-D array.
        cag = CAG()
        cag.add_array("u", 3)
        add_edge(cag, ("v", 0), ("u", 0), 6.0)
        add_edge(cag, ("v", 0), ("u", 2), 4.0)
        res = resolve_conflicts(cag, d=3, backend=backend)
        assert res.cut_weight == pytest.approx(4.0)

    def test_every_node_assigned(self, backend):
        res = resolve_conflicts(figure8_cag(), d=2, backend=backend)
        assert set(res.assignment) == set(figure8_cag().nodes)
        assert all(0 <= k < 2 for k in res.assignment.values())


def test_backends_agree_on_objective():
    cag = figure8_cag()
    add_edge(cag, ("x", 0), ("z", 1), 7.0)
    add_edge(cag, ("z", 0), ("y", 1), 3.0)
    a = resolve_conflicts(cag, d=2, backend="scipy")
    b = resolve_conflicts(cag, d=2, backend="branch-bound")
    assert a.cut_weight == pytest.approx(b.cut_weight)


def test_tomcatv_conflict_pair_sizes_match(tomcatv_assistant):
    """The two import resolutions have identical model sizes but
    different objectives (paper Section 4, Tomcatv)."""
    res = tomcatv_assistant.alignment_spaces.resolutions
    assert len(res) == 2
    assert res[0].num_variables == res[1].num_variables
    assert res[0].num_constraints == res[1].num_constraints
    assert res[0].cut_weight != res[1].cut_weight


# -- the direct path ----------------------------------------------------


def traced(fn, *args, **kwargs):
    """(result, trace) of one call recorded under a fresh tracer."""
    tracing.start_trace("test")
    try:
        result = fn(*args, **kwargs)
    finally:
        trace = tracing.finish_trace()
    return result, trace


def resolve_span(trace):
    (span,) = spans_by_name(trace, "alignment.resolve")
    return span["attrs"]


def cut_of(cag, resolution):
    return frozenset(cag.weights) - frozenset(resolution.resolved.weights)


def random_cag(seed):
    """A small CAG with integer weights 1..4, so that ties are common:
    d in {2, 3}, 2-4 arrays of rank 1..d, up to 8 edges."""
    rng = random.Random(seed)
    d = rng.choice((2, 3))
    cag = CAG()
    for i in range(rng.randint(2, 4)):
        cag.add_array(f"a{i}", rng.randint(1, d))
    nodes = sorted(cag.nodes)
    for _ in range(rng.randint(1, 8)):
        a, b = rng.sample(nodes, 2)
        if a[0] != b[0]:
            add_edge(cag, a, b, float(rng.randint(1, 4)))
    return cag, d


def coupled_cag():
    """Array ``a``'s two dimensions sit in different edge-components
    ({a0, b0} and {a1, c0}) and both want partition 0 — only type 2,
    which no edge path carries, keeps them apart."""
    cag = CAG()
    cag.add_array("a", 2)
    cag.add_array("b", 2)
    cag.add_array("c", 2)
    add_edge(cag, ("a", 0), ("b", 0), 5.0)
    add_edge(cag, ("a", 1), ("c", 0), 3.0)
    return cag


def tied_cag():
    """x0 pulled equally toward both dimensions of y: two optimal cuts."""
    cag = CAG()
    cag.add_array("y", 2)
    add_edge(cag, ("x", 0), ("y", 0), 2.0)
    add_edge(cag, ("x", 0), ("y", 1), 2.0)
    return cag


class TestDirectPath:
    def test_figure8_is_answered_by_enumeration(self):
        cag = figure8_cag()
        res, trace = traced(resolve_conflicts, cag, d=2)
        attrs = resolve_span(trace)
        assert attrs["path"] == "direct"
        assert attrs["optima"] == 1
        assert attrs["assignments"] == res.solution.stats.nodes > 0
        assert spans_by_name(trace, "ilp.solve") == []
        assert res.solution.stats.backend == ENUMERATION_BACKEND
        assert res.optimal and res.solution.is_optimal
        assert res.cut_weight == pytest.approx(4.0)
        assert cut_of(cag, res) == {(("x", 1), ("y", 0))}
        # the canonical relabeling: smallest partitions first
        assert res.assignment == {
            ("x", 0): 0, ("x", 1): 1, ("y", 0): 0, ("y", 1): 1,
        }

    def test_direct_solution_is_the_satisfied_weight(self):
        cag = figure8_cag()
        res = resolve_conflicts(cag, d=2)
        assert res.path == "direct"
        assert res.solution.objective \
            == satisfied_weight(cag, res.assignment) == 20.0
        assert res.solution.stats.backend == ENUMERATION_BACKEND
        assert res.solution.stats.nodes == res.visits \
            == enumerate_optimum(cag, 2).visited
        assert res.solution.values == {}
        assert (res.num_variables, res.num_constraints) == (14, 16)

    def test_reference_switch_builds_and_solves_the_model(self):
        res, trace = traced(
            resolve_conflicts, figure8_cag(), d=2, presolve=False
        )
        assert resolve_span(trace)["path"] == "reference"
        assert "assignments" not in resolve_span(trace)
        assert len(spans_by_name(trace, "ilp.solve")) == 1
        assert res.solution.stats.backend != ENUMERATION_BACKEND
        assert res.cut_weight == pytest.approx(4.0)

    def test_tied_instance_goes_to_the_solver(self):
        cag = tied_cag()
        res, trace = traced(resolve_conflicts, cag, d=2)
        attrs = resolve_span(trace)
        assert (attrs["path"], attrs["optima"]) == ("tie", 2)
        assert len(spans_by_name(trace, "ilp.solve")) == 1
        ref = resolve_conflicts(cag, d=2, presolve=False)
        assert cut_of(cag, res) == cut_of(cag, ref)

    def test_type2_couples_dimensions_across_edge_components(self):
        cag = coupled_cag()
        assert len(cag.components()) > 3  # a0 and a1 are not connected
        res, trace = traced(resolve_conflicts, cag, d=2)
        assert resolve_span(trace)["path"] == "direct"
        assert res.assignment[("a", 0)] != res.assignment[("a", 1)]
        assert res.cut_weight == 0.0
        assert res.solution.objective == 8.0
        ref = resolve_conflicts(cag, d=2, presolve=False)
        assert res.partitioning == ref.partitioning

    def test_overflow_falls_back_and_still_answers(self, monkeypatch):
        cag = figure8_cag()
        full = enumerate_optimum(cag, 2)
        monkeypatch.setattr(enumeration, "VISIT_CAP", full.visited - 1)
        res, trace = traced(resolve_conflicts, cag, d=2)
        attrs = resolve_span(trace)
        assert (attrs["path"], attrs["optima"]) == ("overflow", 0)
        assert len(spans_by_name(trace, "ilp.solve")) == 1
        assert res.optimal
        assert cut_of(cag, res) == {(("x", 1), ("y", 0))}
        # one more visit and the enumeration completes
        monkeypatch.setattr(enumeration, "VISIT_CAP", full.visited)
        _res, trace = traced(resolve_conflicts, cag, d=2)
        assert resolve_span(trace)["path"] == "direct"

    def test_rank_check_is_kept(self):
        cag = CAG()
        cag.add_array("a", 3)
        with pytest.raises(ValueError):
            resolve_conflicts(cag, d=2)

    @pytest.mark.parametrize("block", range(8))
    def test_direct_equals_reference_on_random_cags(self, block):
        for seed in range(block * 40, (block + 1) * 40):
            cag, d = random_cag(seed)
            built = build_alignment_model(cag, d)
            assert model_size(cag, d) == (
                built.num_variables, built.num_constraints
            ), seed
            fast = resolve_conflicts(cag, d)
            ref = resolve_conflicts(cag, d, presolve=False)
            assert fast.cut_weight == pytest.approx(ref.cut_weight), seed
            assert not fast.resolved.has_conflict(), seed
            if not cag.weights:
                continue
            _best, near = optimal_cuts(cag, d)
            direct = fast.solution.stats.backend == ENUMERATION_BACKEND
            assert direct == (len(near) == 1), seed
            # unique: the one cut; tied: the solver's pick, which is
            # what the reference path picks too
            assert cut_of(cag, fast) == cut_of(cag, ref), seed
            if direct:
                assert cut_of(cag, fast) == near[0][1], seed

    def test_enumeration_reports_the_lexicographically_smallest_optimum(
        self,
    ):
        for seed in range(60):
            cag, d = random_cag(seed)
            if not cag.weights:
                continue
            found = enumerate_optimum(cag, d)
            best, _near = optimal_cuts(cag, d)
            nodes = sorted(cag.nodes)
            smallest = min(
                tuple(a[n] for n in nodes)
                for a in enumerate_alignments(cag, d)
                if satisfied_weight(cag, a) == best
            )
            assert tuple(found.assignment[n] for n in nodes) == smallest


class TestFaultSiteAndDeadlineParity:
    """``ilp.solve`` — fault point and checkpoint — fires exactly once
    per resolution, whichever path answers it."""

    CASES = [
        ("direct", figure8_cag, {}),
        ("tie", tied_cag, {}),
        ("reference", figure8_cag, {"presolve": False}),
    ]

    @pytest.mark.parametrize("path,make,kwargs", CASES)
    def test_fault_point_fires_once(self, path, make, kwargs):
        plan = FaultPlan(seed=3, specs=[
            FaultSpec(site="ilp.solve", mode="delay", delay_s=0.0),
        ])
        with faults.armed(plan) as injector:
            _res, trace = traced(resolve_conflicts, make(), d=2, **kwargs)
        assert resolve_span(trace)["path"] == path
        assert [site for site, _m, _d in injector.log] == ["ilp.solve"]

    @pytest.mark.parametrize("path,make,kwargs", CASES)
    def test_checkpoint_fires_once(self, path, make, kwargs):
        labels = []

        class Recording(Deadline):
            __slots__ = ()

            def checkpoint(self, label):
                labels.append(label)
                super().checkpoint(label)

        with deadline_scope(Recording(60.0, hard_s=120.0)):
            _res, trace = traced(resolve_conflicts, make(), d=2, **kwargs)
        assert resolve_span(trace)["path"] == path
        assert labels == ["ilp.solve"]

    def test_injected_error_reaches_the_direct_path(self):
        from repro.resilience.errors import InjectedFault

        plan = FaultPlan(seed=3, specs=[FaultSpec(site="ilp.solve")])
        with faults.armed(plan):
            with pytest.raises(InjectedFault):
                resolve_conflicts(figure8_cag(), d=2)

    def test_spent_budget_skips_the_enumeration(self):
        with deadline_scope(Deadline(1e-9)):
            res, trace = traced(resolve_conflicts, figure8_cag(), d=2)
        assert resolve_span(trace)["path"] == "reference"
        assert res.optimal is False


# -- the paper programs -------------------------------------------------


@pytest.mark.parametrize(
    "program", ["adi", "erlebacher", "shallow", "tomcatv"]
)
def test_paper_programs_start_no_solver_at_1d_block(program):
    result, trace = traced(
        run_assistant, PROGRAMS[program].source(),
        AssistantConfig(nprocs=8),
    )
    assert spans_by_name(trace, "ilp.solve") == []
    resolves = spans_by_name(trace, "alignment.resolve")
    assert len(resolves) == len(result.alignment_spaces.resolutions)
    assert all(s["attrs"]["path"] == "direct" for s in resolves)


def test_tomcatv_resolutions_keep_the_appendix_model_sizes(
    tomcatv_assistant,
):
    first, second = tomcatv_assistant.alignment_spaces.resolutions
    for res in (first, second):
        assert (res.num_variables, res.num_constraints) == (64, 104)
        assert res.solution.stats.backend == ENUMERATION_BACKEND
        assert 0 < res.solution.stats.nodes <= 64
    assert first.solution.objective != second.solution.objective
