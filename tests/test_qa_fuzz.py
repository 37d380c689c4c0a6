"""Fuzz runner and metamorphic-invariant tests."""

import pytest

from repro.frontend.parser import parse_source
from repro.qa.generator import GeneratorConfig, generate_program
from repro.qa.metamorphic import (
    METAMORPHIC_CHECKS,
    add_unused_array,
    declared_arrays,
    rename_identifiers,
    scale_size_parameter,
)
from repro.qa.runner import ALL_CHECKS, run_fuzz
from repro.tool.assistant import AssistantConfig


class TestTransforms:
    def test_rename_is_bijective_and_parseable(self):
        from repro.frontend.printer import format_program

        case = generate_program(0)
        arrays = declared_arrays(case.program)
        mapping = {name: f"z{name}" for name in arrays}
        renamed = rename_identifiers(case.program, mapping)
        assert declared_arrays(renamed) == [f"z{a}" for a in arrays]
        parse_source(format_program(renamed))
        # renaming back restores the original tree
        back = rename_identifiers(
            renamed, {v: k for k, v in mapping.items()}
        )
        assert back == case.program

    def test_scale_size_parameter(self):
        from repro.frontend.printer import format_program

        case = generate_program(0, GeneratorConfig(size=8))
        scaled = scale_size_parameter(case.program, 3)
        assert "parameter (n = 24)" in format_program(scaled)

    def test_add_unused_array_appends_rank1_decl(self):
        case = generate_program(0)
        extended = add_unused_array(case.program)
        assert "zunused" in declared_arrays(extended)
        assert case.program.body == extended.body

    def test_metamorphic_checks_pass_on_generated_programs(self):
        config = AssistantConfig(nprocs=4)
        for seed in (0, 5, 11):
            case = generate_program(seed)
            for name, check in METAMORPHIC_CHECKS.items():
                violation = check(case.program, config)
                assert violation is None, f"seed {seed} {name}: {violation}"


class TestTripCountScalingPrecondition:
    """Seed 427: two constant rows of a BLOCK-distributed dimension
    share a processor at one block size and not at another, so that
    phase may get cheaper as ``n`` grows; every other phase may not."""

    CONFIG = AssistantConfig(nprocs=4)

    @staticmethod
    def _corpus_case():
        import os

        from repro.qa.corpus import load_corpus

        corpus = load_corpus(os.path.join(os.path.dirname(__file__),
                                          "corpus"))
        return next(c for c in corpus
                    if c.name == "seed-0427-constant-rows")

    def test_the_estimate_falls_and_the_check_knows_why(self):
        from repro.frontend.printer import format_program
        from repro.qa.metamorphic import (
            check_trip_count_scaling,
            pins_two_constant_subscripts,
        )
        from repro.tool.assistant import run_assistant

        case = self._corpus_case()
        assert case.kind == "scale-trip-counts" and case.seed == 427
        program = parse_source(case.source)
        base = run_assistant(case.source, self.CONFIG)
        doubled = run_assistant(
            format_program(scale_size_parameter(program, 2)), self.CONFIG
        )
        # rows 1 and 3: different processors at n=8 @4, one at n=16
        assert min(doubled.graph.node_costs[0]) \
            < min(base.graph.node_costs[0])
        assert [pins_two_constant_subscripts(p)
                for p in base.partition.phases] == [True]
        assert check_trip_count_scaling(program, self.CONFIG) is None
        # the whole generated program, of which phase 0 is that phase
        full = generate_program(427)
        assert check_trip_count_scaling(full.program, self.CONFIG) is None

    @pytest.mark.parametrize("rhs, exempt", [
        ("a(3, j + 2, k - 1)", True),   # the corpus case itself
        ("a(1, j + 2, k - 1)", False),  # one constant row
        ("a(k, 3, j)", False),  # another dimension of the same array
        ("b(k, 3, j)", True),  # of another array: may be aligned to it
    ])
    def test_what_counts_as_two_pinned_rows(self, rhs, exempt):
        from repro.qa.metamorphic import pins_two_constant_subscripts
        from repro.tool.assistant import run_assistant

        source = self._corpus_case().source.replace(
            "real a(n, n, n)", "real a(n, n, n), b(n, n, n)"
        ).replace("a(3, j + 2, k - 1)", rhs)
        result = run_assistant(source, self.CONFIG)
        assert [pins_two_constant_subscripts(p)
                for p in result.partition.phases] == [exempt]

    def test_a_genuinely_shrinking_phase_still_fires(self):
        """The check's runner answers the doubled program with the
        result of the *halved* one: every phase got cheaper, none of
        them pins two constants, and the check says so."""
        from repro.frontend.printer import format_program
        from repro.qa.metamorphic import (
            check_trip_count_scaling,
            pins_two_constant_subscripts,
        )
        from repro.tool.assistant import run_assistant

        case = generate_program(0, GeneratorConfig(size=16))
        base_source = format_program(case.program)
        halved = base_source.replace(
            "parameter (n = 16)", "parameter (n = 8)"
        )
        assert halved != base_source

        def shrinking(source, config):
            if source == base_source:
                return run_assistant(source, config)
            return run_assistant(halved, config)

        base = run_assistant(base_source, self.CONFIG)
        assert not all(pins_two_constant_subscripts(p)
                       for p in base.partition.phases)
        violation = check_trip_count_scaling(
            case.program, self.CONFIG, runner=shrinking
        )
        assert violation is not None and "cheaper" in violation
        assert check_trip_count_scaling(case.program, self.CONFIG) is None


class TestRunner:
    def test_clean_campaign(self):
        report = run_fuzz(seed=0, cases=8)
        assert report.ok
        assert report.cases_run == 8
        assert report.checks_run["roundtrip"] == 8
        for check in ALL_CHECKS:
            assert check in report.checks_run

    def test_campaign_is_deterministic(self):
        a = run_fuzz(seed=3, cases=4, checks=["roundtrip", "pipeline"])
        b = run_fuzz(seed=3, cases=4, checks=["roundtrip", "pipeline"])
        assert a.checks_run == b.checks_run
        assert [f.describe() for f in a.failures] \
            == [f.describe() for f in b.failures]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(seed=0, cases=1, checks=["nonsense"])

    def test_injected_failure_is_minimized_and_serialized(
        self, tmp_path, monkeypatch
    ):
        # Corrupt the selection ILP builder process-wide: every case now
        # diverges, exercising minimization and corpus serialization.
        from repro.qa import oracles
        from repro.selection.ilp import build_selection_model

        def corrupted(graph):
            ilp = build_selection_model(graph)
            for var in ilp.model.variables:
                if var.startswith("x:"):
                    break
            ilp.model.set_objective_coeff(var, 1e9)
            return ilp

        monkeypatch.setattr(
            oracles, "build_selection_model", corrupted
        )
        report = run_fuzz(
            seed=0, cases=3, checks=["selection-oracle"],
            out_dir=str(tmp_path),
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.check == "selection-oracle"
        written = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".f") for name in written)
        assert any(name.endswith(".json") for name in written)

    def test_budget_stops_campaign(self):
        report = run_fuzz(seed=0, budget_seconds=0.0)
        assert report.cases_run == 0
