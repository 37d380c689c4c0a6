"""Execution model + estimator tests: phase classification and pricing."""

import pytest

from repro.distribution.search_space import build_layout_search_spaces
from repro.machine.params import IPSC860
from repro.perf.compiler_model import CompilerOptions
from repro.perf.estimator import estimate_search_spaces
from repro.perf.execution_model import (
    LOOSELY_SYNCHRONOUS,
    PIPELINED,
    REDUCTION,
    SEQUENTIALIZED,
)


@pytest.fixture(scope="module")
def adi_estimates(adi_assistant):
    return adi_assistant.estimates


def classes_of(estimates, phase_index):
    return {
        e.candidate.layout.distribution.distributed_dims()[0]:
        e.estimate.exec_class
        for e in estimates.per_phase[phase_index]
    }


class TestAdiClassification:
    def test_init_phase_parallel_everywhere(self, adi_estimates):
        assert set(classes_of(adi_estimates, 0).values()) == {
            LOOSELY_SYNCHRONOUS
        }

    def test_i_sweep_pipelines_under_row(self, adi_estimates):
        classes = classes_of(adi_estimates, 2)
        assert classes[0] == PIPELINED
        assert classes[1] == LOOSELY_SYNCHRONOUS

    def test_j_sweep_sequentializes_under_column(self, adi_estimates):
        classes = classes_of(adi_estimates, 6)
        assert classes[0] == LOOSELY_SYNCHRONOUS
        assert classes[1] == SEQUENTIALIZED

    def test_dependent_classes_cost_more_than_parallel(self, adi_estimates):
        """Pipelined and sequentialized executions both cost well above
        the loosely synchronous alternative of the same phase.  (Their
        mutual order depends on the problem size: at small n the
        fine-grain pipeline's per-stage latency dominates and
        sequentialization can be cheaper — the real trade-off the tool
        navigates.)"""
        for idx, bad_class in ((2, PIPELINED), (6, SEQUENTIALIZED)):
            bad = next(
                e.total for e in adi_estimates.per_phase[idx]
                if e.estimate.exec_class == bad_class
            )
            good = next(
                e.total for e in adi_estimates.per_phase[idx]
                if e.estimate.exec_class == LOOSELY_SYNCHRONOUS
            )
            assert bad > 2 * good

    def test_best_candidate_helper(self, adi_estimates):
        best = min(adi_estimates.per_phase[2], key=lambda e: e.total)
        assert best.estimate.exec_class == LOOSELY_SYNCHRONOUS


class TestErlebacherClassification:
    @pytest.fixture(scope="class")
    def est(self, erlebacher_small, training_db):
        prog, table, part, pcfg = erlebacher_small
        from repro.alignment.search_space import build_alignment_search_spaces
        from repro.distribution.template import determine_template

        tpl = determine_template(table)
        aspaces = build_alignment_search_spaces(
            part.phases, pcfg, table, tpl
        )
        lspaces = build_layout_search_spaces(
            part.phases, aspaces, tpl, table, nprocs=4
        )
        return estimate_search_spaces(
            part.phases, lspaces, table, IPSC860, training_db
        ), part

    def test_forward_elimination_classes(self, est):
        estimates, part = est
        # phase 8 is the x forward elimination (dep along i, innermost)
        classes = classes_of(estimates, 8)
        assert classes[0] == PIPELINED  # fine grain
        assert classes[1] == LOOSELY_SYNCHRONOUS
        assert classes[2] == LOOSELY_SYNCHRONOUS

    def test_z_sweep_sequentializes_under_dist3(self, est):
        estimates, part = est
        # phase 34 is the z forward elimination (dep along k, outermost)
        classes = classes_of(estimates, 34)
        assert classes[2] == SEQUENTIALIZED

    def test_y_sweep_coarse_pipeline_cheaper_than_x_fine(self, est):
        estimates, _ = est
        x_fine = next(
            e.total for e in estimates.per_phase[8]
            if e.estimate.exec_class == PIPELINED
        )
        y_coarse = next(
            e.total for e in estimates.per_phase[21]
            if e.estimate.exec_class == PIPELINED
        )
        assert y_coarse < x_fine


class TestTomcatvClassification:
    def test_reduction_phase(self, tomcatv_assistant):
        estimates = tomcatv_assistant.estimates
        # phase 6 is the rmax reduction
        classes = {
            e.estimate.exec_class for e in estimates.per_phase[6]
        }
        assert classes == {REDUCTION}


class TestCompilerOptions:
    def test_vectorization_matters(self, adi_assistant, training_db):
        """Without message vectorization shift costs explode."""
        from repro.perf.estimator import estimate_search_spaces

        novect = estimate_search_spaces(
            adi_assistant.partition.phases,
            adi_assistant.layout_spaces,
            adi_assistant.symbols,
            IPSC860,
            training_db,
            options=CompilerOptions(message_vectorization=False),
        )
        base = adi_assistant.estimates
        # phase 2 row layout carries a vectorized shift of array b
        row_base = base.per_phase[2][0]
        row_novect = novect.per_phase[2][0]
        assert row_novect.estimate.communication > \
            row_base.estimate.communication * 2

    def test_coarse_grain_pipelining_helps_fine_pipelines(
        self, adi_assistant, training_db
    ):
        from repro.perf.estimator import estimate_search_spaces

        cgp = estimate_search_spaces(
            adi_assistant.partition.phases,
            adi_assistant.layout_spaces,
            adi_assistant.symbols,
            IPSC860,
            training_db,
            options=CompilerOptions(coarse_grain_pipelining=True),
        )
        base = adi_assistant.estimates
        assert cgp.per_phase[2][0].estimate.pipeline < \
            base.per_phase[2][0].estimate.pipeline

    def test_options_name(self):
        assert CompilerOptions().name == "vect+coal"
        assert CompilerOptions(
            message_vectorization=False, message_coalescing=False
        ).name == "naive"


class TestEstimateStructure:
    def test_totals_are_component_sums(self, adi_estimates):
        for cands in adi_estimates.per_phase.values():
            for e in cands:
                est = e.estimate
                assert est.total == pytest.approx(
                    est.compute + est.communication + est.pipeline
                )

    def test_all_costs_nonnegative(self, adi_estimates):
        for cands in adi_estimates.per_phase.values():
            for e in cands:
                assert e.estimate.compute >= 0
                assert e.estimate.communication >= 0
                assert e.estimate.pipeline >= 0
