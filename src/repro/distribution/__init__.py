"""Layout types and distribution search spaces."""

from .template import Template, determine_template
from .layouts import (
    BLOCK,
    BLOCK_CYCLIC,
    CYCLIC,
    SERIAL,
    Alignment,
    DataLayout,
    DimDistribution,
    Distribution,
    needs_remap,
)

__all__ = [
    "Template",
    "determine_template",
    "Alignment",
    "DataLayout",
    "DimDistribution",
    "Distribution",
    "BLOCK",
    "CYCLIC",
    "BLOCK_CYCLIC",
    "SERIAL",
    "needs_remap",
]

from .search_space import (
    CandidateLayout,
    DistributionOptions,
    LayoutSearchSpaces,
    build_layout_search_spaces,
    enumerate_distributions,
)

__all__ += [
    "CandidateLayout",
    "DistributionOptions",
    "LayoutSearchSpaces",
    "build_layout_search_spaces",
    "enumerate_distributions",
]
