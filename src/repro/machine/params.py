"""Machine parameters for the simulated target architecture.

The paper's prototype is trained on Intel's iPSC/860 (and Paragon).  We
have no hypercube in the room, so the repo simulates one; the constants
below are set to the iPSC/860's published regime:

* short-message software latency ~75 us, long-message protocol ~150 us
  with the protocol switch near 100 bytes;
* sustained point-to-point bandwidth ~2.8 MB/s (0.36 us/byte);
* nearly distance-insensitive circuit-switched routing (small per-hop
  term);
* i860 nodes achieving a few Mflop/s on compiled Fortran (if77 -O4), with
  expensive division and non-unit-stride memory penalties;
* non-unit-stride messages must be packed/unpacked through a buffer.

All times are **microseconds**; sizes are bytes.  Everything the estimator
and the simulator know about the hardware flows from this one dataclass,
so re-targeting means swapping a parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineParams:
    """Cost parameters of the simulated message-passing machine."""

    name: str = "ipsc860"

    # -- network -----------------------------------------------------------
    #: software latency of a short message (<= short_message_bytes)
    alpha_short: float = 75.0
    #: software latency of a long message (protocol switch)
    alpha_long: float = 150.0
    #: protocol boundary in bytes
    short_message_bytes: int = 100
    #: transfer time per byte (~2.8 MB/s)
    beta_per_byte: float = 0.36
    #: per-hop wire latency on the hypercube (circuit switched, small)
    hop_latency: float = 2.0
    #: per-byte cost of packing/unpacking a non-unit-stride message
    buffer_copy_per_byte: float = 0.10
    #: receive-side software overhead (crecv + message-queue handling)
    recv_overhead: float = 60.0

    # -- node computation ---------------------------------------------------
    #: double-precision add/subtract
    op_add: float = 0.15
    #: double-precision multiply
    op_mul: float = 0.15
    #: double-precision divide
    op_div: float = 0.80
    #: exponentiation
    op_pow: float = 3.00
    #: intrinsic call (sqrt, sin, exp, ...)
    op_intrinsic: float = 2.50
    #: memory read per array element touched
    op_load: float = 0.08
    #: memory write per array element stored
    op_store: float = 0.10
    #: loop bookkeeping per innermost iteration
    op_loop_overhead: float = 0.05
    #: single-precision discount factor
    real_factor: float = 0.85
    #: extra per-element factor for non-unit-stride traversal (cache)
    stride_penalty: float = 1.6

    # -- derived helpers -----------------------------------------------------

    def message_time(self, nbytes: int, hops: int = 1,
                     buffered: bool = False) -> float:
        """End-to-end time of one point-to-point message."""
        if nbytes <= self.short_message_bytes:
            alpha = self.alpha_short
        else:
            alpha = self.alpha_long
        time = alpha + nbytes * self.beta_per_byte + hops * self.hop_latency
        if buffered:
            time += 2 * nbytes * self.buffer_copy_per_byte  # pack + unpack
        return time

    def send_overhead(self, nbytes: int, buffered: bool = False) -> float:
        """Sender-side occupancy (the sender resumes after this)."""
        if nbytes <= self.short_message_bytes:
            alpha = self.alpha_short
        else:
            alpha = self.alpha_long
        time = alpha + nbytes * self.beta_per_byte
        if buffered:
            time += nbytes * self.buffer_copy_per_byte  # pack
        return time

    def dtype_factor(self, dtype: str) -> float:
        return self.real_factor if dtype in ("real", "integer") else 1.0



IPSC860 = MachineParams()

#: A Paragon-flavoured parameter set (faster network, same framework) —
#: used by tests to show the framework is machine-parameterized.
PARAGON = MachineParams(
    name="paragon",
    alpha_short=50.0,
    alpha_long=90.0,
    beta_per_byte=0.012,
    hop_latency=0.5,
    op_add=0.08,
    op_mul=0.08,
    op_div=0.45,
    recv_overhead=12.0,
)

MACHINES = {"ipsc860": IPSC860, "paragon": PARAGON}
