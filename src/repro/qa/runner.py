"""The fuzz campaign driver: generate → check → minimize → serialize.

For every case seed the runner

1. generates a random program (``generator``) and property-checks the
   printer↔parser round trip;
2. runs the full assistant pipeline on it (a crash is itself a failure);
3. differentially checks the per-phase alignment ILPs, every conflict
   resolution the pipeline performs (phase CAGs and import merges) and
   the selection ILP against the brute-force oracles (``oracles``),
   skipping instances beyond the enumeration limits;
4. runs the metamorphic pipeline invariants (``metamorphic``);
5. on any failure, greedily minimizes the program under the same failing
   check (``minimize``) and serializes the repro case (``corpus``).

The campaign is bounded by a case count and/or a wall-clock budget and is
fully deterministic for a given (seed, config) pair.  Every case emits an
observability span (no-ops when tracing is off), so ``--trace`` makes a
whole campaign inspectable in the usual tooling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..alignment.cag import CAG
from ..alignment.search_space import dominance_factor
from ..alignment.weights import build_phase_cag
from ..frontend import ast
from ..frontend.parser import parse_source
from ..frontend.printer import format_program
from ..obs.tracing import add_event as obs_event, span as obs_span
from ..selection.ilp import select_layouts
from ..selection.presolve import eliminate_component, presolve_selection
from ..tool.assistant import AssistantConfig, AssistantResult, run_assistant
from . import metamorphic as mm
from . import oracles
from .corpus import case_meta, write_case
from .generator import GeneratedCase, GeneratorConfig, generate_program, \
    normalize_program
from .minimize import minimize_program

#: forced-small elimination table caps the ``selection-presolve`` check
#: replays every case under (generated graphs have 2-4 candidates a phase)
_SMALL_TABLE_CAPS = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class FuzzFailure:
    """One failing case, before and after minimization."""

    seed: int
    check: str
    detail: str
    source: str
    minimized_source: Optional[str] = None

    def describe(self) -> str:
        return f"seed {self.seed}: [{self.check}] {self.detail}"


@dataclass
class FuzzReport:
    """Campaign summary."""

    seed: int
    cases_run: int = 0
    elapsed: float = 0.0
    checks_run: Dict[str, int] = field(default_factory=dict)
    oracle_skips: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, check: str) -> None:
        self.checks_run[check] = self.checks_run.get(check, 0) + 1

    def skip(self, check: str) -> None:
        self.oracle_skips[check] = self.oracle_skips.get(check, 0) + 1

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases in {self.elapsed:.1f}s "
            f"(base seed {self.seed}) — "
            + ("OK" if self.ok else f"{len(self.failures)} FAILURES"),
        ]
        for check in ALL_CHECKS:
            ran = self.checks_run.get(check, 0)
            if not ran:
                continue
            skipped = self.oracle_skips.get(check, 0)
            note = f" ({skipped} beyond oracle limits)" if skipped else ""
            lines.append(f"  {check:<20} {ran:>6} checks{note}")
        for failure in self.failures:
            lines.append(f"  FAIL {failure.describe()}")
        return "\n".join(lines)


def _check_roundtrip(case: GeneratedCase) -> Optional[str]:
    reparsed = parse_source(case.source)
    if normalize_program(reparsed) != normalize_program(case.program):
        return "parse(print(ast)) != normalized ast"
    # And printing must be a fixpoint on the reparsed tree.
    if format_program(reparsed) != case.source:
        return "print(parse(print(ast))) != print(ast)"
    return None


def _alignment_divergence(
    result: AssistantResult, backend: str,
    report: Optional[FuzzReport] = None,
) -> Optional[str]:
    """The appendix model on every phase CAG, and conflict resolution as
    the pipeline runs it on every CAG the pipeline resolves: the
    conflicting phase CAGs and the conflicting import merges."""
    d = result.template.rank
    # (where, CAG, whether the appendix model is checked on it too)
    cags = [
        (f"phase {phase.index}", build_phase_cag(phase, result.symbols),
         True)
        for phase in result.partition.phases
    ]
    classes = result.alignment_spaces.classes
    cags += [
        (f"import {source.name}->{sink.name}", CAG.merge(
            source.cag.scaled(dominance_factor(sink.cag)), sink.cag
        ), False)
        for sink in classes for source in classes if source is not sink
    ]
    for where, cag, check_model in cags:
        if (
            oracles.alignment_assignment_count(cag, d)
            > oracles.MAX_ALIGNMENT_ASSIGNMENTS
        ):
            if report is not None:
                report.skip("alignment-oracle")
            continue
        divergence = None
        if check_model:
            divergence = oracles.check_alignment(cag, d, backend=backend)
        if divergence is None and cag.has_conflict():
            divergence = oracles.check_resolution(cag, d, backend=backend)
        if divergence is not None:
            return f"{where}: {divergence}"
    return None


def _selection_divergence(
    result: AssistantResult, backend: str,
    report: Optional[FuzzReport] = None,
) -> Optional[str]:
    graph = result.graph
    if (
        oracles.selection_combination_count(graph)
        > oracles.MAX_SELECTION_COMBINATIONS
    ):
        if report is not None:
            report.skip("selection-oracle")
        return None
    divergence = oracles.check_selection(graph, backend=backend)
    return None if divergence is None else str(divergence)


def _presolve_divergence(
    result: AssistantResult, backend: str,
    report: Optional[FuzzReport] = None,
) -> Optional[str]:
    """Presolve soundness against the brute-force certificate: the
    graph-presolve path must reach the exhaustive optimum exactly, with
    the oracle's selection or an equal-objective one, and every
    presolve-fixed phase must carry the certificate's candidate.  The
    unpresolved solve is held to its own contract only: HiGHS stops at
    any incumbent inside its 1e-4 relative gap, so among candidates
    1e-9 apart it may return any."""
    graph = result.graph
    if (
        oracles.selection_combination_count(graph)
        > oracles.MAX_SELECTION_COMBINATIONS
    ):
        if report is not None:
            report.skip("selection-presolve")
        return None
    if not graph.node_costs:
        return None
    oracle_cost, oracle_sel = oracles.exact_best_selection(graph)
    fast = select_layouts(graph, backend=backend, presolve=True)
    if fast.objective != oracle_cost:
        return (f"presolved objective {fast.objective!r} != exhaustive "
                f"optimum {oracle_cost!r}")
    if graph.evaluate(fast.selection) != oracle_cost:
        return (f"presolved selection {fast.selection} is not the "
                f"optimum {oracle_sel} nor an equal-objective one")
    ref = select_layouts(graph, backend=backend, presolve=False)
    if not oracle_cost <= ref.objective <= oracle_cost + 1e-4 * abs(
        oracle_cost
    ):
        return (f"unpresolved objective {ref.objective!r} is outside the "
                f"solver's gap above the optimum {oracle_cost!r}")
    pre = presolve_selection(graph)
    for phase_index, cand in sorted(pre.fixed.items()):
        if oracle_sel.get(phase_index) != cand:
            return (
                f"presolve fixed phase {phase_index} to candidate "
                f"{cand} but the oracle certificate selects "
                f"{oracle_sel.get(phase_index)}"
            )
    # Replay under table caps the greedy order overflows, so its tie
    # rule and cutsets face the certificate.
    for cap in _SMALL_TABLE_CAPS:
        for comp in pre.components:
            solved = eliminate_component(pre, comp, table_cap=cap)
            certificate = {p: oracle_sel[p] for p in comp}
            if solved != certificate:
                return (
                    f"elimination under table_cap={cap} selects "
                    f"{solved} but the oracle certificate has "
                    f"{certificate}"
                )
    return None


#: the checks on a finished analysis, in execution order: name ->
#: ``(result, backend, report)`` -> the divergence found, or ``None``
RESULT_CHECKS: Dict[str, Callable[..., Optional[str]]] = {
    "alignment-oracle": _alignment_divergence,
    "selection-oracle": _selection_divergence,
    "selection-presolve": _presolve_divergence,
}

#: every check the runner knows, in execution order
ALL_CHECKS = (
    "roundtrip", "pipeline", *RESULT_CHECKS, *mm.METAMORPHIC_CHECKS,
)


def _failure_predicate(
    check: str, assistant_config: AssistantConfig, backend: str
) -> Callable[[ast.Program], bool]:
    """Predicate for the minimizer: does ``check`` still fail?"""

    def run(program: ast.Program) -> AssistantResult:
        return run_assistant(format_program(program), assistant_config)

    def predicate(program: ast.Program) -> bool:
        if check == "roundtrip":
            case = GeneratedCase(
                seed=-1, config=GeneratorConfig(), program=program
            )
            return _check_roundtrip(case) is not None
        if check == "pipeline":
            try:
                run(program)
            except Exception:
                return True
            return False
        result = run(program)
        if check in RESULT_CHECKS:
            return RESULT_CHECKS[check](result, backend) is not None
        checker = mm.METAMORPHIC_CHECKS.get(check)
        if checker is None:
            return False
        return checker(program, assistant_config, base=result) is not None

    return predicate


def run_fuzz(
    seed: int = 0,
    cases: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    config: Optional[GeneratorConfig] = None,
    assistant_config: Optional[AssistantConfig] = None,
    checks: Optional[List[str]] = None,
    minimize: bool = True,
    out_dir: Optional[str] = None,
    progress: Optional[Callable[[int, FuzzReport], None]] = None,
) -> FuzzReport:
    """Run a fuzz campaign; see the module docstring for the per-case
    protocol.  ``cases`` and ``budget_seconds`` may be combined; with
    neither given, the campaign runs 100 cases."""
    config = config or GeneratorConfig()
    assistant_config = assistant_config or AssistantConfig(nprocs=4)
    backend = assistant_config.ilp_backend
    enabled = list(checks) if checks is not None else list(ALL_CHECKS)
    for check in enabled:
        if check not in ALL_CHECKS:
            raise ValueError(f"unknown fuzz check {check!r}")
    if cases is None and budget_seconds is None:
        cases = 100

    report = FuzzReport(seed=seed)
    start = time.monotonic()
    index = 0
    with obs_span("fuzz.campaign", seed=seed,
                  cases=cases if cases is not None else -1):
        while True:
            if cases is not None and index >= cases:
                break
            if (
                budget_seconds is not None
                and time.monotonic() - start >= budget_seconds
            ):
                break
            case_seed = seed + index
            index += 1
            with obs_span("fuzz.case", seed=case_seed):
                failure = _run_case(
                    case_seed, config, assistant_config, backend,
                    enabled, report,
                )
            report.cases_run += 1
            if failure is not None:
                if minimize:
                    predicate = _failure_predicate(
                        failure.check, assistant_config, backend
                    )
                    with obs_span("fuzz.minimize", seed=case_seed,
                                  check=failure.check):
                        minimized = minimize_program(
                            generate_program(case_seed, config).program,
                            predicate,
                        )
                    failure.minimized_source = format_program(minimized)
                report.failures.append(failure)
                obs_event("fuzz.failure", seed=case_seed,
                          check=failure.check, detail=failure.detail)
                if out_dir is not None:
                    write_case(
                        out_dir,
                        f"fail-{failure.check}-{case_seed}",
                        failure.minimized_source or failure.source,
                        case_meta(
                            kind=failure.check,
                            seed=case_seed,
                            config=config,
                            detail=failure.detail,
                            nprocs=assistant_config.nprocs,
                            minimized=failure.minimized_source is not None,
                        ),
                    )
            if progress is not None:
                progress(case_seed, report)
    report.elapsed = time.monotonic() - start
    return report


def _run_case(
    case_seed: int,
    config: GeneratorConfig,
    assistant_config: AssistantConfig,
    backend: str,
    enabled: List[str],
    report: FuzzReport,
) -> Optional[FuzzFailure]:
    case = generate_program(case_seed, config)

    def fail(check: str, detail: str) -> FuzzFailure:
        return FuzzFailure(
            seed=case_seed, check=check, detail=detail, source=case.source
        )

    if "roundtrip" in enabled:
        report.count("roundtrip")
        detail = _check_roundtrip(case)
        if detail is not None:
            return fail("roundtrip", detail)

    needs_pipeline = any(c in enabled for c in ALL_CHECKS[1:])
    if not needs_pipeline:
        return None
    report.count("pipeline")
    try:
        result = run_assistant(case.source, assistant_config)
    except Exception as exc:  # a pipeline crash is a finding, not an abort
        return fail("pipeline", f"{type(exc).__name__}: {exc}")

    for name, check in RESULT_CHECKS.items():
        if name not in enabled:
            continue
        report.count(name)
        detail = check(result, backend, report)
        if detail is not None:
            return fail(name, detail)

    for name, checker in mm.METAMORPHIC_CHECKS.items():
        if name not in enabled:
            continue
        report.count(name)
        try:
            detail = checker(
                case.program, assistant_config, base=result
            )
        except Exception as exc:
            detail = f"check crashed: {type(exc).__name__}: {exc}"
        if detail is not None:
            return fail(name, detail)
    return None
