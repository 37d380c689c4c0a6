"""Ablation benchmarks for the design choices DESIGN.md calls out:

* 0-1 optimal selection vs greedy / DP / best-static baselines;
* HiGHS backend vs the from-scratch implicit-enumeration solver;
* the compiler-model knobs (message vectorization, coarse-grain
  pipelining — the paper's future-work transformation);
* prototype 1-D BLOCK distribution spaces vs the extended generators.
"""

import pytest

from repro.distribution.search_space import DistributionOptions
from repro.machine.params import IPSC860
from repro.perf.compiler_model import CompilerOptions
from repro.perf.estimator import estimate_search_spaces
from repro.programs.registry import PROGRAMS
from repro.selection.baselines import (
    best_static_selection,
    dp_selection,
    greedy_selection,
)
from repro.selection.ilp import select_layouts
from repro.tool.assistant import AssistantConfig, run_assistant

from .conftest import emit

CASES = {
    "adi": dict(n=256, maxiter=3),
    "erlebacher": dict(n=64),
    "tomcatv": dict(n=128, maxiter=3),
    "shallow": dict(n=384, maxiter=3),
}


@pytest.fixture(scope="module")
def assistants():
    return {
        name: run_assistant(
            PROGRAMS[name].source(**kwargs), AssistantConfig(nprocs=16)
        )
        for name, kwargs in CASES.items()
    }


def test_selector_ablation_table(assistants):
    lines = [
        "Selection ablation: estimated total cost (s) per selector",
        f"{'program':<12} {'0-1 optimal':>12} {'DP':>12} {'greedy':>12} "
        f"{'best static':>12}",
    ]
    for name, result in assistants.items():
        graph = result.graph
        optimal = result.selection.objective
        _dp_sel, dp_cost = dp_selection(graph)
        _g_sel, greedy_cost = greedy_selection(graph)
        _s_sel, static_cost = best_static_selection(graph)
        lines.append(
            f"{name:<12} {optimal/1e6:>12.4f} {dp_cost/1e6:>12.4f} "
            f"{greedy_cost/1e6:>12.4f} {static_cost/1e6:>12.4f}"
        )
        assert optimal <= dp_cost + 1e-6
        assert optimal <= greedy_cost + 1e-6
        assert optimal <= static_cost + 1e-6
    emit("ablation_selectors.txt", "\n".join(lines))


def test_greedy_pays_for_remap_blindness(assistants):
    """On stencil codes the remap-blind greedy selector thrashes."""
    shallow = assistants["shallow"].graph
    _sel, greedy_cost = greedy_selection(shallow)
    optimal = assistants["shallow"].selection.objective
    assert greedy_cost > 2 * optimal


def test_dp_matches_ilp_on_true_chains(assistants):
    """The DP is provably optimal when every remap edge connects
    consecutive phases.  Erlebacher's PCFG *is* a chain, but its per-array
    remap edges jump over phases that do not reference the array, so the
    DP is only a heuristic there — verify both facts."""
    # A straight-line program where every phase touches every array:
    # all remap edges are consecutive, DP == ILP.
    source = (
        "program chain\n"
        "      integer n\n      parameter (n = 32)\n"
        "      double precision a(n, n), b(n, n)\n"
        "      integer i, j\n"
        + "".join(
            "      do j = 1, n\n        do i = 2, n\n"
            f"          {w}(i, j) = {r}(i - {d}, j) + {w}(i, j)\n"
            "        enddo\n      enddo\n"
            for w, r, d in (("a", "b", 1), ("b", "a", 2), ("a", "b", 1))
        )
        + "      end\n"
    )
    result = run_assistant(source, AssistantConfig(nprocs=8))
    _sel, dp_cost = dp_selection(result.graph)
    assert dp_cost == pytest.approx(result.selection.objective)

    # Erlebacher: DP is an upper bound but not necessarily tight.
    erlebacher = assistants["erlebacher"].graph
    _sel, dp_cost = dp_selection(erlebacher)
    assert dp_cost >= assistants["erlebacher"].selection.objective - 1e-6


def test_solver_backend_ablation(assistants):
    graph = assistants["shallow"].graph
    highs = select_layouts(graph, backend="scipy")
    bb = select_layouts(graph, backend="branch-bound")
    assert bb.objective == pytest.approx(highs.objective)


def test_compiler_model_ablation(assistants):
    """Turning off message vectorization must inflate the estimates of
    shift-communicating layouts; enabling coarse-grain pipelining (the
    paper's future-work compiler feature) must deflate fine-grain
    pipelines."""
    result = assistants["adi"]
    base = result.estimates

    novect = estimate_search_spaces(
        result.partition.phases, result.layout_spaces, result.symbols,
        IPSC860, result.db,
        options=CompilerOptions(message_vectorization=False),
    )
    cgp = estimate_search_spaces(
        result.partition.phases, result.layout_spaces, result.symbols,
        IPSC860, result.db,
        options=CompilerOptions(coarse_grain_pipelining=True),
    )

    lines = ["Compiler-model ablation (Adi 256^2, 16 procs, row layout)"]
    # phase 2 candidate 0 = row layout: pipelined with a shifted read
    base_e = base.per_phase[2][0].estimate
    novect_e = novect.per_phase[2][0].estimate
    cgp_e = cgp.per_phase[2][0].estimate
    lines.append(f"baseline:            comm={base_e.communication:10.0f}us "
                 f"pipeline={base_e.pipeline:10.0f}us")
    lines.append(f"no vectorization:    comm={novect_e.communication:10.0f}us")
    lines.append(f"coarse-grain pipes:  pipeline={cgp_e.pipeline:10.0f}us")
    emit("ablation_compiler_model.txt", "\n".join(lines))

    assert novect_e.communication > base_e.communication
    assert cgp_e.pipeline < base_e.pipeline


def test_extended_distribution_spaces():
    """The future-work distribution generators enlarge the search spaces
    and never worsen the optimum."""
    source = PROGRAMS["adi"].source(n=128, maxiter=2)
    proto = run_assistant(source, AssistantConfig(nprocs=16))
    extended = run_assistant(
        source,
        AssistantConfig(
            nprocs=16, distributions=DistributionOptions.extended()
        ),
    )
    assert extended.layout_spaces.total_candidates() > \
        proto.layout_spaces.total_candidates()
    assert extended.selection.objective <= proto.selection.objective + 1e-6

    lines = [
        "Distribution-space ablation (Adi 128^2, 16 procs)",
        f"prototype spaces: {proto.layout_spaces.total_candidates()} "
        f"candidates, predicted {proto.predicted_total_us/1e6:.4f} s",
        f"extended spaces:  {extended.layout_spaces.total_candidates()} "
        f"candidates, predicted {extended.predicted_total_us/1e6:.4f} s",
    ]
    emit("ablation_distributions.txt", "\n".join(lines))


def test_block_cyclic_ring_pipeline_discovery():
    """Extension result worth recording: on Adi the extended search space
    finds a *static block-cyclic column* layout whose ring software
    pipelining of the sequentialized j sweeps beats every layout the
    prototype spaces contain — confirmed by the simulator."""
    from repro.tool.measurement import measure_layouts

    # Small problem, few processors: here the remapped scheme's
    # all-to-alls are latency-bound and the static block-cyclic column
    # strictly wins (at larger n/P the prototype's dynamic scheme
    # catches up and the two tie).
    src = PROGRAMS["adi"].source(n=64, maxiter=3)
    proto = run_assistant(src, AssistantConfig(nprocs=4))
    ext = run_assistant(
        src,
        AssistantConfig(
            nprocs=4,
            distributions=DistributionOptions(
                block_cyclic_sizes=(4, 8, 16)
            ),
        ),
    )
    m_proto = measure_layouts(src, proto.selected_layouts, nprocs=4)
    m_ext = measure_layouts(src, ext.selected_layouts, nprocs=4)
    lines = [
        "Block-cyclic ring-pipeline discovery (Adi 64^2, 4 procs)",
        f"prototype optimum:   predicted {proto.predicted_total_us/1e6:.4f} s"
        f"  measured {m_proto.makespan_us/1e6:.4f} s"
        f"  ({m_proto.remap_count} remaps)",
        f"with block-cyclic:   predicted {ext.predicted_total_us/1e6:.4f} s"
        f"  measured {m_ext.makespan_us/1e6:.4f} s"
        f"  ({m_ext.remap_count} remaps)",
    ]
    emit("ablation_block_cyclic.txt", "\n".join(lines))
    assert ext.selection.objective < proto.selection.objective
    assert m_ext.makespan_us < m_proto.makespan_us
    assert m_ext.remap_count == 0  # the winner is fully static


def test_multidim_grids_on_alpha_heavy_machine():
    """2-D grids halve boundary volumes but double message counts; on the
    latency-heavy iPSC/860 model the 1-D layouts keep winning for the
    four programs — the quantitative reason the Fortran D prototype's
    1-D restriction was cheap."""
    src = PROGRAMS["shallow"].source(n=256, maxiter=2)
    proto = run_assistant(src, AssistantConfig(nprocs=16))
    ext = run_assistant(
        src,
        AssistantConfig(
            nprocs=16,
            distributions=DistributionOptions(multi_dim_grids=True),
        ),
    )
    grids = {
        tuple(
            ext.layout_spaces.per_phase[i][p]
            .layout.distribution.distributed_dims()
        )
        for i, p in ext.selection.selection.items()
    }
    lines = [
        "Multi-dimensional grids (Shallow 256^2, 16 procs)",
        f"1-D optimum predicted:  {proto.predicted_total_us/1e6:.4f} s",
        f"with 2-D grids offered: {ext.predicted_total_us/1e6:.4f} s",
        f"distributed dims chosen: {sorted(grids)}",
    ]
    emit("ablation_multidim.txt", "\n".join(lines))
    # the optimum never gets worse, and on this machine stays 1-D
    assert ext.selection.objective <= proto.selection.objective + 1e-6
    assert all(len(g) == 1 for g in grids)


def test_import_heuristic_value(assistants):
    """Without the import exchange, Tomcatv's solver phases would have no
    transposed-workspace candidates: verify the imported candidates are
    actually selected by the optimum."""
    result = assistants["tomcatv"]
    chosen_alignments = set()
    for idx, pos in result.selection.selection.items():
        cand = result.layout_spaces.per_phase[idx][pos]
        for name, alignment in cand.alignment.alignments:
            if name in ("aa", "dd"):
                chosen_alignments.add((name, alignment.axis_map))
    # both orientations of the workspace arrays are in use somewhere
    assert len(chosen_alignments) >= 2
