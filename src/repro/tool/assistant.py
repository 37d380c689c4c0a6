"""The data layout assistant: the paper's four framework steps end to end.

1. partition the program into phases and build the PCFG;
2. construct alignment and candidate-layout search spaces;
3. estimate every candidate (and remapping costs) against the machine's
   training sets;
4. select one candidate per phase with the 0-1 optimum.

The result object keeps every intermediate structure browsable — the
framework is designed for an interactive tool, so search spaces can be
inspected and edited before re-running selection.

The run is decomposed into six *stages* (frontend, partition, alignment,
distribution, estimation, selection), each an independently callable
pure function of its inputs under a ``stage:<name>`` span, behind a
cooperative ``checkpoint("stage:<name>")`` (a hard-expired
``deadline_scope`` ends the run there; free with none in scope).
``run_assistant`` is their composition, and what the layout service
(``repro.service``) runs on a cache miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Set, Tuple

from ..alignment.search_space import (
    AlignmentSearchSpaces,
    build_alignment_search_spaces,
)
from ..analysis.pcfg import PCFG, build_pcfg
from ..analysis.phases import (
    DEFAULT_BRANCH_PROBABILITY,
    PhasePartition,
    partition_phases,
)
from ..distribution.layouts import DataLayout
from ..distribution.search_space import (
    DistributionOptions,
    LayoutSearchSpaces,
    build_layout_search_spaces,
)
from ..distribution.template import Template, determine_template
from ..frontend import ast
from ..frontend.inline import inline_program
from ..frontend.parser import parse_source_file
from ..frontend.symbols import SymbolTable, build_symbol_table
from ..machine.params import IPSC860, MACHINES, MachineParams
from ..obs.tracing import span as obs_span
from ..perf.compiler_model import FORTRAN_D_PROTOTYPE, CompilerOptions
from ..perf.estimator import (
    EstimationResult,
    JobRunner,
    estimate_search_spaces,
)
from ..perf.training import TrainingDatabase, cached_training_database
from ..resilience.deadline import checkpoint
from ..selection.ilp import SelectionResult, select_layouts
from ..selection.layout_graph import DataLayoutGraph, build_layout_graph


@dataclass
class AssistantConfig:
    """Everything the framework is parameterized with (compiler, machine,
    problem size via the source text, and processor count)."""

    nprocs: int
    machine: MachineParams = IPSC860
    compiler: CompilerOptions = FORTRAN_D_PROTOTYPE
    distributions: DistributionOptions = field(
        default_factory=DistributionOptions.prototype
    )
    ilp_backend: str = "scipy"
    branch_probability: float = DEFAULT_BRANCH_PROBABILITY
    branch_prob_overrides: Optional[Dict[int, float]] = None
    #: presolve + exact elimination before the selection/alignment ILPs;
    #: False forces the legacy full-model solves.
    ilp_presolve: bool = True

    # -- serialization ---------------------------------------------------
    #
    # Configs must round-trip through plain dicts (JSON-safe) so the
    # service protocol can carry them and the stage cache can key on
    # them.  ``to_dict`` → ``from_dict`` is the round-trip; ``to_key``
    # is a stable content hash of the canonical dict.

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable dict capturing every field."""
        overrides = None
        if self.branch_prob_overrides is not None:
            overrides = {
                str(k): float(v)
                for k, v in sorted(self.branch_prob_overrides.items())
            }
        dist = asdict(self.distributions)
        dist["block_cyclic_sizes"] = list(dist["block_cyclic_sizes"])
        return {
            "nprocs": self.nprocs,
            "machine": asdict(self.machine),
            "compiler": asdict(self.compiler),
            "distributions": dist,
            "ilp_backend": self.ilp_backend,
            "branch_probability": self.branch_probability,
            "branch_prob_overrides": overrides,
            "ilp_presolve": self.ilp_presolve,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AssistantConfig":
        """Rebuild a config from :meth:`to_dict` output (or a hand-written
        dict; the machine may be given by registry name)."""
        machine = data.get("machine", IPSC860)
        if isinstance(machine, str):
            machine = MACHINES[machine]
        elif isinstance(machine, Mapping):
            machine = MachineParams(**machine)
        compiler = data.get("compiler", FORTRAN_D_PROTOTYPE)
        if isinstance(compiler, Mapping):
            compiler = CompilerOptions(**compiler)
        dist = data.get("distributions")
        if dist is None:
            distributions = DistributionOptions.prototype()
        elif isinstance(dist, Mapping):
            dist = dict(dist)
            dist["block_cyclic_sizes"] = tuple(
                dist.get("block_cyclic_sizes", ())
            )
            distributions = DistributionOptions(**dist)
        else:
            distributions = dist
        overrides = data.get("branch_prob_overrides")
        if overrides is not None:
            overrides = {int(k): float(v) for k, v in overrides.items()}
        return cls(
            nprocs=int(data["nprocs"]),
            machine=machine,
            compiler=compiler,
            distributions=distributions,
            ilp_backend=data.get("ilp_backend", "scipy"),
            branch_probability=float(
                data.get("branch_probability", DEFAULT_BRANCH_PROBABILITY)
            ),
            branch_prob_overrides=overrides,
            ilp_presolve=bool(data.get("ilp_presolve", True)),
        )

    def to_key(self) -> str:
        """Stable content hash of the config (cache-key ingredient)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class AssistantResult:
    """All four steps' outputs, plus the final selected layouts."""

    config: AssistantConfig
    program: ast.Program
    symbols: SymbolTable
    partition: PhasePartition
    pcfg: PCFG
    template: Template
    alignment_spaces: AlignmentSearchSpaces
    layout_spaces: LayoutSearchSpaces
    estimates: EstimationResult
    graph: DataLayoutGraph
    selection: SelectionResult
    db: TrainingDatabase

    @property
    def selected_layouts(self) -> Dict[int, DataLayout]:
        return {
            idx: self.layout_spaces.per_phase[idx][pos].layout
            for idx, pos in self.selection.selection.items()
        }

    @property
    def predicted_total_us(self) -> float:
        return self.selection.objective

    @property
    def is_dynamic(self) -> bool:
        """Does the selected layout remap anything?"""
        sel = self.selection.selection
        for edge in self.graph.edges:
            pair = (sel[edge.src_phase], sel[edge.dst_phase])
            if edge.costs.get(pair, 0.0) > 0.0:
                return True
        return False

    def reselect(
        self, allowed: Optional[Dict[int, Set[int]]] = None
    ) -> SelectionResult:
        """Re-run the selection step, optionally restricted — the hook for
        user edits of the search spaces."""
        return select_layouts(
            self.graph, backend=self.config.ilp_backend, allowed=allowed,
            presolve=self.config.ilp_presolve,
        )


# ---------------------------------------------------------------------------
# The six stages.  Each is a pure function of its arguments.

#: stage names, in pipeline order
STAGES = (
    "frontend", "partition", "alignment", "distribution", "estimation",
    "selection",
)


def stage_frontend(source: str) -> Tuple[ast.Program, SymbolTable]:
    """Parse and inline the source, build the symbol table.

    Multi-unit files (PROGRAM plus SUBROUTINEs) are inlined first — the
    framework itself is intra-procedural, like the paper's prototype, but
    the tool performs the inlining its authors did by hand.
    """
    checkpoint("stage:frontend")
    with obs_span("stage:frontend", source_bytes=len(source)) as sp:
        with obs_span("frontend.parse"):
            program = parse_source_file(source)
        with obs_span("frontend.inline"):
            program = inline_program(program)
        with obs_span("frontend.symbols"):
            symbols = build_symbol_table(program)
        sp.set_attr("arrays", len(symbols.arrays()))
    return program, symbols


def stage_partition(
    program: ast.Program, symbols: SymbolTable, config: AssistantConfig
) -> Tuple[PhasePartition, PCFG, Template]:
    """Phase partitioning, PCFG construction, template determination."""
    checkpoint("stage:partition")
    with obs_span("stage:partition") as sp:
        with obs_span("partition.phases"):
            partition = partition_phases(
                program,
                symbols,
                branch_probability=config.branch_probability,
                branch_prob_overrides=config.branch_prob_overrides,
            )
        with obs_span("partition.pcfg"):
            pcfg = build_pcfg(partition)
        with obs_span("partition.template"):
            template = determine_template(symbols)
        sp.set_attr("phases", len(partition.phases))
        sp.set_attr("template_rank", template.rank)
    return partition, pcfg, template


def stage_alignment(
    partition: PhasePartition,
    pcfg: PCFG,
    symbols: SymbolTable,
    template: Template,
    config: AssistantConfig,
) -> AlignmentSearchSpaces:
    """Per-phase alignment search spaces (intra-phase CAG optimization)."""
    checkpoint("stage:alignment")
    with obs_span("stage:alignment", backend=config.ilp_backend) as sp:
        spaces = build_alignment_search_spaces(
            partition.phases, pcfg, symbols, template,
            backend=config.ilp_backend,
        )
        sp.set_attr("classes", len(spaces.classes))
        sp.set_attr("resolutions", len(spaces.resolutions))
        sp.set_attr(
            "candidates",
            sum(len(v) for v in spaces.per_phase.values()),
        )
    return spaces


def stage_distribution(
    partition: PhasePartition,
    alignment_spaces: AlignmentSearchSpaces,
    template: Template,
    symbols: SymbolTable,
    config: AssistantConfig,
) -> LayoutSearchSpaces:
    """Candidate data-layout search spaces (alignment x distribution)."""
    checkpoint("stage:distribution")
    with obs_span("stage:distribution", nprocs=config.nprocs) as sp:
        spaces = build_layout_search_spaces(
            partition.phases, alignment_spaces, template, symbols,
            nprocs=config.nprocs, options=config.distributions,
        )
        sp.set_attr("candidates", spaces.total_candidates())
        sp.set_attr("distributions", len(spaces.distributions))
    return spaces


def stage_estimation(
    partition: PhasePartition,
    layout_spaces: LayoutSearchSpaces,
    symbols: SymbolTable,
    config: AssistantConfig,
    job_runner: Optional[JobRunner] = None,
) -> Tuple[EstimationResult, TrainingDatabase]:
    """Price every candidate of every phase against the training sets."""
    checkpoint("stage:estimation")
    with obs_span(
        "stage:estimation", parallel=job_runner is not None
    ) as sp:
        with obs_span("estimation.training_db"):
            db = cached_training_database(config.machine)
        estimates = estimate_search_spaces(
            partition.phases, layout_spaces, symbols, config.machine,
            db=db, options=config.compiler, job_runner=job_runner,
        )
        sp.set_attr(
            "candidates",
            sum(len(v) for v in estimates.per_phase.values()),
        )
    return estimates, db


def stage_selection(
    partition: PhasePartition,
    pcfg: PCFG,
    estimates: EstimationResult,
    symbols: SymbolTable,
    db: TrainingDatabase,
    config: AssistantConfig,
) -> Tuple[DataLayoutGraph, SelectionResult]:
    """Build the data layout graph and solve the 0-1 selection problem."""
    checkpoint("stage:selection")
    with obs_span("stage:selection", backend=config.ilp_backend) as sp:
        graph = build_layout_graph(
            partition.phases, pcfg, estimates, symbols, db, config.nprocs
        )
        selection = select_layouts(
            graph, backend=config.ilp_backend,
            presolve=config.ilp_presolve,
        )
        sp.set_attr("variables", selection.num_variables)
        sp.set_attr("constraints", selection.num_constraints)
        sp.set_attr("objective_us", selection.objective)
    return graph, selection


def run_assistant(
    source: str,
    config: AssistantConfig,
    job_runner: Optional[JobRunner] = None,
) -> AssistantResult:
    """Run the four framework steps on Fortran source text.

    ``job_runner`` (optional) parallelizes the estimation stage; results
    are identical with or without it.
    """
    with obs_span("pipeline", nprocs=config.nprocs):
        program, symbols = stage_frontend(source)
        partition, pcfg, template = stage_partition(
            program, symbols, config
        )
        alignment_spaces = stage_alignment(
            partition, pcfg, symbols, template, config
        )
        layout_spaces = stage_distribution(
            partition, alignment_spaces, template, symbols, config
        )
        estimates, db = stage_estimation(
            partition, layout_spaces, symbols, config,
            job_runner=job_runner
        )
        graph, selection = stage_selection(
            partition, pcfg, estimates, symbols, db, config
        )
    return AssistantResult(
        config=config,
        program=program,
        symbols=symbols,
        partition=partition,
        pcfg=pcfg,
        template=template,
        alignment_spaces=alignment_spaces,
        layout_spaces=layout_spaces,
        estimates=estimates,
        graph=graph,
        selection=selection,
        db=db,
    )
