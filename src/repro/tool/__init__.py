"""The data layout assistant tool: end-to-end pipeline, measurement,
schemes, test-case grids, reports, CLI."""
