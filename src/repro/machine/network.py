"""Hypercube interconnect model.

The iPSC/860 is a binary hypercube of up to 128 nodes with
circuit-switched (distance-nearly-insensitive) routing; we keep the
Hamming-distance hop count as a small additive term and use it for the
collective algorithms' structure.
"""

from __future__ import annotations

from .params import MachineParams


def hops(src: int, dst: int) -> int:
    """Hamming distance between node numbers = routing hops."""
    return bin(src ^ dst).count("1")


def point_to_point_time(
    params: MachineParams,
    src: int,
    dst: int,
    nbytes: int,
    buffered: bool = False,
) -> float:
    """End-to-end message time between two nodes."""
    if src == dst:
        return 0.0
    return params.message_time(nbytes, hops=hops(src, dst), buffered=buffered)
