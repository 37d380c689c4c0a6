"""Performance estimation: training sets, compiler/execution models.

The :mod:`repro.perf.bench` subpackage is the repo's own benchmark
harness (``repro bench``): deterministic stage/end-to-end timings,
``BENCH_<label>.json`` baselines, and the regression gate.
"""

from .training import (
    PATTERNS,
    TrainingDatabase,
    TrainingKey,
    TrainingSet,
    cached_training_database,
    generate_training_database,
)
from .compiler_model import FORTRAN_D_PROTOTYPE, CompilerOptions
from .execution_model import (
    LOOSELY_SYNCHRONOUS,
    PIPELINED,
    REDUCTION,
    SEQUENTIALIZED,
    PhaseEstimate,
    price_phase,
)
from .estimator import (
    EstimatedCandidate,
    EstimationResult,
    estimate_search_spaces,
)

__all__ = [
    "PATTERNS", "TrainingDatabase", "TrainingKey", "TrainingSet",
    "cached_training_database", "generate_training_database",
    "CompilerOptions", "FORTRAN_D_PROTOTYPE",
    "PhaseEstimate", "price_phase", "LOOSELY_SYNCHRONOUS", "PIPELINED",
    "SEQUENTIALIZED", "REDUCTION",
    "EstimatedCandidate", "EstimationResult", "estimate_search_spaces",
]
