"""Alignment analysis: CAG, lattice, 0-1 conflict resolution, heuristic."""
