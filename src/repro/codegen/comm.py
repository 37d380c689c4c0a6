"""Communication classification for the compiler model.

Given one assignment statement, its loop nest, and a candidate layout,
decide — exactly as the target Fortran D compiler would — how
owner-computes partitions the iterations, where communication is
required, and of which pattern.  Who owns an index, how long an owned
run is and where a linear rank sits on the processor grid are the
layout value's answers (:mod:`repro.distribution.layouts`): a
:class:`PartitionDim` holds the ``DimDistribution`` of its template
dimension and a :class:`StmtPlan` the layout's ``Distribution``, and
nothing here branches on a distribution format.  The patterns:

* **shift** — read offset by a constant along a distributed dimension
  (nearest-neighbour boundary exchange, message-vectorized out of the
  loops);
* **broadcast** — read of a fixed position along a distributed dimension
  (the owner broadcasts a slab) or of data every processor needs;
* **gather** — read whose distributed-dimension subscript runs over a
  *different* loop variable than the owner's partition variable (a
  transpose-like, all-to-all pattern: the classic cost of an unsatisfied
  alignment preference);
* **reduction** — array data combined into a scalar;
* **pipeline** — a loop-carried flow dependence crossing the distributed
  dimension: not vectorizable; the phase executes as a pipeline whose
  granularity is fixed by the loop order (the modelled compiler performs
  no loop interchange or coarse-grain pipelining).

Message vectorization hoists every non-pipeline message out of the loop
nest; message coalescing dedupes events with identical
(array, dimension, pattern, offset) keys.

Stride/buffering follows Fortran column-major storage: a message slab with
its *first* array dimension fixed is strided and must be buffered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.dependence import Dependence, _pair_dependences
from ..analysis.references import ArrayAccess, LoopInfo
from ..distribution.layouts import DataLayout, DimDistribution, Distribution
from ..frontend.symbols import ArraySymbol, SymbolTable


# --------------------------------------------------------------------------
# Communication events (all message-vectorized, i.e. per phase execution)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftComm:
    """Nearest-neighbour exchange of a boundary slab."""

    array: str
    template_dim: int
    offset: int  # +1: data flows from higher block to lower, etc.
    nbytes: int  # per processor
    buffered: bool
    #: processors along the exchanging dimension (= machine size for the
    #: prototype's 1-D distributions)
    procs: int = 0


@dataclass(frozen=True)
class BroadcastComm:
    """Owner broadcasts a slab along the distributed dimension."""

    array: str
    template_dim: int
    nbytes: int
    buffered: bool
    procs: int = 0


@dataclass(frozen=True)
class GatherComm:
    """Transpose-like all-to-all of the array's local share (misaligned
    read or fully-replicated consumer of distributed data)."""

    array: str
    template_dim: int
    local_bytes: int  # per-processor share exchanged
    buffered: bool
    procs: int = 0


@dataclass(frozen=True)
class ReductionComm:
    """Combine per-processor partial results into a scalar (then made
    available everywhere, as the Fortran D compiler does)."""

    nbytes: int


CommEvent = ShiftComm | BroadcastComm | GatherComm | ReductionComm


@dataclass(frozen=True)
class PipelineSpec:
    """A statement executing as a (possibly degenerate) pipeline."""

    array: str
    template_dim: int
    var: str  # partitioned loop variable carrying the dependence
    distance: int
    #: product of trip counts of loops *outside* var (pipeline stages);
    #: 1 means the computation is fully sequentialized across processors
    stages: int
    #: product of trip counts of loops *inside* var
    inner_iters: int
    #: per-stage boundary message size in bytes
    msg_bytes: int
    buffered: bool
    #: +1: values flow from lower to higher blocks (forward sweep);
    #: -1: backward sweep, the chain runs from the last processor down
    direction: int = 1
    #: times the processor ring is traversed per stage: 1 for BLOCK;
    #: CYCLIC / BLOCK-CYCLIC hand the chain around once per ownership
    #: block, multiplying the hand-off count
    rounds: int = 1
    #: length of the dependence chain: processors along the carried
    #: dimension (the full machine under 1-D distributions; one grid
    #: axis under multi-dimensional ones, with the orthogonal axes
    #: running independent chains in parallel)
    chain_procs: int = 0


@dataclass(frozen=True)
class PartitionDim:
    """Owner-computes partitioning of the iteration space along one
    distributed template dimension."""

    template_dim: int
    dist: DimDistribution  # the layout's distribution of template_dim
    extent: int  # extent of the write's array dimension aligned here
    #: loop variable indexing the dimension (None: fixed position)
    var: Optional[str]
    coeff: int
    const: int
    #: fixed position when var is None (a "localized" write)
    localized_index: Optional[int] = None


@dataclass
class StmtPlan:
    """Everything the code generator / estimator needs for one statement:
    the owner-computes partitioning (one :class:`PartitionDim` per
    distributed dimension of the written array), the communication it
    requires, and the layout's distribution, whose grid places a linear
    rank on each partitioned dimension."""

    write: ArrayAccess
    #: cost of one iteration of the statement body (microseconds)
    per_iter_cost: float
    #: the write's array is not distributed: all processors execute it
    replicated_write: bool
    comms: List[CommEvent]
    pipeline: Optional[PipelineSpec]
    #: trips of all loops, outermost first: (var, trips)
    loop_trips: Tuple[Tuple[str, int], ...]
    guard_probability: float
    distribution: Distribution
    partitions: Tuple[PartitionDim, ...] = ()

    def partition_for(self, tdim: int) -> Optional[PartitionDim]:
        for pd in self.partitions:
            if pd.template_dim == tdim:
                return pd
        return None

    def total_iterations(self) -> int:
        total = 1
        for _var, trips in self.loop_trips:
            total *= trips
        return total

    def other_iterations(self) -> int:
        """Iterations of all loops except the primary partitioned one
        (the last partitioned dimension indexed by a loop variable)."""
        primary = next(
            (pd.var for pd in reversed(self.partitions)
             if pd.var is not None),
            None,
        )
        total = 1
        for var, trips in self.loop_trips:
            if var != primary:
                total *= trips
        return total

    def partition_divisor(self, skip_tdim: Optional[int] = None) -> int:
        """Product of processor counts over all variable-partitioned
        dimensions (the parallelism owner-computes extracts), leaving
        out the one on template dimension ``skip_tdim`` if given."""
        divisor = 1
        for pd in self.partitions:
            if pd.var is not None and pd.template_dim != skip_tdim:
                divisor *= pd.dist.procs
        return divisor

    def local_iters_rank(self, rank: int) -> int:
        """Exact per-processor iteration count for any grid shape and
        format, boundary-processor irregularity included."""
        total = self.total_iterations()
        if self.replicated_write or not self.partitions:
            return total
        coords = self.distribution.coords(rank)
        # Fixed-position dimensions: only the owning coordinate executes.
        for pd in self.partitions:
            if pd.var is None and pd.localized_index is not None:
                owner = pd.dist.owner(pd.localized_index, pd.extent)
                if coords.get(pd.template_dim, 0) != owner:
                    return 0
        local = 1
        for var, trips in self.loop_trips:
            pd = next(
                (p for p in self.partitions if p.var == var), None
            )
            if pd is None:
                local *= trips
                continue
            loop = next(
                l for l in self.write.loops if l.var == var
            )
            local *= sum(
                _owned_iterations(loop, pd.coeff, pd.const, lo, hi)
                for lo, hi in pd.dist.owned_runs(
                    coords.get(pd.template_dim, 0), pd.extent
                )
            )
        return local


def _owned_iterations(
    loop: LoopInfo, coeff: int, const: int, run_lo: int, run_hi: int
) -> int:
    """#{v the loop takes : run_lo <= coeff*v + const <= run_hi}.  The
    loop's values are the lattice ``loop.lo + k*step`` between its
    bounds, so a stepped loop is credited only the points it visits."""
    if loop.lo is None or loop.hi is None or coeff == 0:
        return 0
    # Solve run_lo <= coeff*v + const <= run_hi for v.
    if coeff > 0:
        v_lo = -(-(run_lo - const) // coeff)  # ceil
        v_hi = (run_hi - const) // coeff
    else:
        v_lo = -(-(run_hi - const) // coeff)
        v_hi = (run_lo - const) // coeff
    v_lo = max(v_lo, min(loop.lo, loop.hi))
    v_hi = min(v_hi, max(loop.lo, loop.hi))
    # Lattice points in [v_lo, v_hi], anchored at the loop's first value.
    step = abs(loop.step or 1)
    first = -(-(v_lo - loop.lo) // step)
    last = (v_hi - loop.lo) // step
    return max(last - first + 1, 0)


def _slab_buffered(symbol: ArraySymbol, fixed_dim: int) -> bool:
    """A slab with array dimension ``fixed_dim`` held constant is strided
    (needs buffering) unless the fixed dimension is the slowest-varying
    one — Fortran is column-major, so dimension 0 varies fastest."""
    if symbol.rank == 1:
        return False
    return fixed_dim != symbol.rank - 1


@dataclass(frozen=True)
class StmtFacts:
    """What planning reads of one statement that no layout changes: the
    write (at most one — Fortran assignments; none for a scalar target)
    and the reads, the loop trips and guard, the cost of one iteration,
    and the flow dependences from the write to reads of its own array
    (in read order: the statement's pipeline candidates)."""

    write: Optional[ArrayAccess]
    reads: Tuple[ArrayAccess, ...]
    per_iter_cost: float
    loop_trips: Tuple[Tuple[str, int], ...]
    guard_probability: float
    flows: Tuple[Dependence, ...]


def statement_facts(
    accesses: Sequence[ArrayAccess], per_iter_cost: float
) -> StmtFacts:
    """The layout-independent facts of one statement, from its (non-empty)
    array accesses."""
    writes = [a for a in accesses if a.is_write]
    reads = tuple(a for a in accesses if not a.is_write)
    write = writes[0] if writes else None
    sample = write if write is not None else reads[0]
    flows = () if write is None else tuple(
        dep
        for read in reads if read.array == write.array
        for dep in _pair_dependences(write, read) if dep.kind == "flow"
    )
    return StmtFacts(
        write=write,
        reads=reads,
        per_iter_cost=per_iter_cost,
        loop_trips=tuple(
            (loop.var, loop.trip_count or 1) for loop in sample.loops
        ),
        guard_probability=sample.guard_probability,
        flows=flows,
    )


def plan_statement(
    facts: StmtFacts,
    layout: DataLayout,
    symbols: SymbolTable,
) -> StmtPlan:
    """Build the communication/partitioning plan of one statement under
    ``layout``."""
    write, reads = facts.write, facts.reads
    per_iter_cost = facts.per_iter_cost
    loop_trips = facts.loop_trips
    guard = facts.guard_probability

    if write is None:
        # Reduction into a scalar: everyone computes its local share of the
        # *reads*; partition by the first distributed read if possible.
        partitions, partitioning_read = _partition_by_read(
            reads, layout, symbols
        )
        plan = StmtPlan(
            # the read's loops serve local-iteration queries
            write=partitioning_read or reads[0],
            per_iter_cost=per_iter_cost,
            replicated_write=False,
            comms=[ReductionComm(nbytes=8)],
            pipeline=None,
            loop_trips=loop_trips,
            guard_probability=guard,
            distribution=layout.distribution,
            partitions=partitions,
        )
        _plan_reads(plan, reads, layout, symbols)
        return plan

    wsym = symbols.array(write.array)
    wdist = layout.distributed_array_dims(write.array)
    partitions: List[PartitionDim] = []
    for adim, tdim, _procs in wdist:
        sub = write.subscripts[adim]
        var = sub.single_index_var()
        if var is not None and any(v == var for v, _ in loop_trips):
            localized = None
        elif sub.is_constant():
            var, localized = None, sub.const
        else:
            continue
        partitions.append(
            PartitionDim(
                template_dim=tdim,
                dist=layout.distribution.dims[tdim],
                extent=wsym.extents[adim],
                var=var,
                coeff=sub.coeff(var) if var is not None else 0,
                const=sub.const,
                localized_index=localized,
            )
        )

    plan = StmtPlan(
        write=write,
        per_iter_cost=per_iter_cost,
        replicated_write=not wdist,
        comms=[],
        pipeline=None,
        loop_trips=loop_trips,
        guard_probability=guard,
        distribution=layout.distribution,
        partitions=tuple(partitions),
    )

    # Detect a flow dependence crossing a distributed dimension -> the
    # statement pipelines (or sequentializes) instead of pre-communicating.
    # Under multi-dimensional grids the chain runs along the carried
    # dimension while the orthogonal partitioned dimensions run their own
    # chains in parallel — stages, chunk and message sizes are per-chain.
    var_of = {pd.var: pd for pd in partitions if pd.var is not None}
    for dep in facts.flows:
        pd = var_of.get(dep.carrier_var)
        if pd is None:
            continue
        adim = dep.dim
        stages = 1
        inner = 1
        seen_var = False
        for var, trips in loop_trips:
            if var == pd.var:
                seen_var = True
                continue
            other = var_of.get(var)
            local_trips = (
                -(-trips // other.dist.procs) if other is not None
                else trips
            )
            if seen_var:
                inner *= local_trips
            else:
                stages *= local_trips
        elem = wsym.element_bytes
        msg_bytes = dep.distance * inner * elem
        # Element-space flow direction: write at a*v + c_w feeds a read
        # at a*v + c_r; positive (c_w - c_r)/a means values flow toward
        # higher indices (forward sweep).
        w_sub = dep.source.subscripts[dep.dim]
        r_sub = dep.sink.subscripts[dep.dim]
        coeff_sign = 1 if pd.coeff >= 0 else -1
        direction = 1 if (w_sub.const - r_sub.const) * coeff_sign > 0 \
            else -1
        plan.pipeline = PipelineSpec(
            array=write.array,
            template_dim=pd.template_dim,
            var=pd.var,
            distance=dep.distance,
            stages=stages,
            inner_iters=inner,
            msg_bytes=max(msg_bytes, elem),
            buffered=_slab_buffered(wsym, adim) and inner > 1,
            direction=direction,
            # interleaved formats hand the dependence chain around the
            # ring once per owned run
            rounds=pd.dist.runs(pd.extent),
            chain_procs=pd.dist.procs,
        )
        break

    _plan_reads(plan, reads, layout, symbols)
    return plan


def _partition_by_read(
    reads: Sequence[ArrayAccess],
    layout: DataLayout,
    symbols: SymbolTable,
) -> Tuple[Tuple[PartitionDim, ...], Optional[ArrayAccess]]:
    """For scalar-target statements: partition iterations by the first
    distributed read array (the Fortran D reduction mapping), along every
    grid dimension the read covers.  Returns the partitions and that
    read, or ``((), None)`` when no read is distributed."""
    for read in reads:
        symbol = symbols.get(read.array)
        if not isinstance(symbol, ArraySymbol):
            continue
        partitions: List[PartitionDim] = []
        for adim, tdim, _procs in layout.distributed_array_dims(read.array):
            sub = read.subscripts[adim]
            var = sub.single_index_var()
            if var is None:
                continue
            partitions.append(
                PartitionDim(
                    template_dim=tdim,
                    dist=layout.distribution.dims[tdim],
                    extent=symbol.extents[adim],
                    var=var,
                    coeff=sub.coeff(var),
                    const=sub.const,
                )
            )
        if partitions:
            return tuple(partitions), read
    return (), None


def _plan_reads(
    plan: StmtPlan,
    reads: Sequence[ArrayAccess],
    layout: DataLayout,
    symbols: SymbolTable,
) -> None:
    """Classify every read's communication requirement (vectorized +
    coalesced).

    Case analysis per (read, distributed template dim ``tdim``):

    1. iterations are *partitioned* along ``tdim`` by loop variable ``v``:
       - read indexed by ``v`` with the write's coefficient: aligned up to
         a constant offset → local (0) or **shift** (≠0);
       - read indexed by ``v`` with a different coefficient, or by some
         other loop variable: **gather** (transpose-like misalignment);
       - read at a constant position: every processor needs the owner's
         slab → **broadcast**;
    2. iterations are *not* partitioned along ``tdim`` (replicated or
       localized write, or a different partition dim): the executing
       processor(s) span the whole dimension:
       - read at a constant position: remote only if the writing owner
         differs from the reading owner (then a slab **broadcast**, which
         also covers the localized point-to-point case);
       - otherwise the full distributed array is needed → **gather**.
    """
    seen_keys = set()
    for read in reads:
        symbol = symbols.get(read.array)
        if not isinstance(symbol, ArraySymbol):
            continue
        if plan.pipeline is not None and read.array == plan.pipeline.array:
            continue  # handled by the pipeline schedule
        for adim, tdim, procs in layout.distributed_array_dims(read.array):
            sub = read.subscripts[adim]
            elem = symbol.element_bytes
            other_extent = symbol.element_count // symbol.extents[adim]
            extent = symbol.extents[adim]
            pd = plan.partition_for(tdim)
            if pd is not None and pd.var is not None:
                # Orthogonal grid axes split the data, shrinking
                # per-processor slabs.
                other_divisor = plan.partition_divisor(skip_tdim=tdim)
                var = sub.single_index_var()
                if var == pd.var:
                    if sub.coeff(var) == pd.coeff:
                        delta = sub.const - pd.const
                        if delta == 0:
                            continue  # perfectly aligned: local access
                        key = (read.array, tdim, "shift", delta)
                        if key in seen_keys:
                            continue  # message coalescing
                        seen_keys.add(key)
                        # Boundary volume: |delta| elements per run the
                        # owner holds, over the runs the read's extent
                        # spans (one under BLOCK).
                        run = pd.dist.run(pd.extent)
                        runs = max(-(-extent // (procs * run)), 1)
                        boundary = min(abs(delta), run) * runs
                        nbytes = max(
                            boundary * other_extent * elem // other_divisor,
                            elem,
                        )
                        plan.comms.append(
                            ShiftComm(
                                array=read.array,
                                template_dim=tdim,
                                offset=delta,
                                nbytes=nbytes,
                                buffered=_slab_buffered(symbol, adim),
                                procs=procs,
                            )
                        )
                    else:
                        _add_gather(plan, seen_keys, read.array, tdim,
                                    symbol, procs, "gather-coeff")
                    continue
                if sub.is_constant():
                    nbytes = max(other_extent * elem // other_divisor, elem)
                else:
                    # Distributed dimension indexed by a non-partition
                    # variable: transpose-like all-to-all (the classic
                    # alignment-conflict penalty).
                    _add_gather(plan, seen_keys, read.array, tdim, symbol,
                                procs, "gather-misaligned")
                    continue
            elif sub.is_constant():
                # Not partitioned along tdim.  A localized write and the
                # read sit on the same template dimension, so the same
                # ownership map decides both owners.
                if (
                    pd is not None
                    and pd.localized_index is not None
                    and pd.dist.owner(sub.const, extent)
                    == pd.dist.owner(pd.localized_index, extent)
                ):
                    continue  # both slabs live on the same processor
                nbytes = other_extent * elem
            else:
                _add_gather(plan, seen_keys, read.array, tdim, symbol,
                            procs, "gather-replicated")
                continue
            key = (read.array, tdim, "bcast", sub.const)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            plan.comms.append(
                BroadcastComm(
                    array=read.array,
                    template_dim=tdim,
                    nbytes=nbytes,
                    buffered=_slab_buffered(symbol, adim),
                    procs=procs,
                )
            )


def _add_gather(
    plan: StmtPlan,
    seen_keys: set,
    array: str,
    tdim: int,
    symbol: ArraySymbol,
    procs: int,
    tag: str,
) -> None:
    key = (array, tdim, tag)
    if key in seen_keys:
        return
    seen_keys.add(key)
    # The array's true per-processor share: divide by every grid axis it
    # is distributed over (not just the one being gathered along).
    divisor = procs * plan.partition_divisor(skip_tdim=tdim)
    plan.comms.append(
        GatherComm(
            array=array,
            template_dim=tdim,
            local_bytes=max(symbol.total_bytes // divisor,
                            symbol.element_bytes),
            buffered=True,
            procs=procs,
        )
    )
