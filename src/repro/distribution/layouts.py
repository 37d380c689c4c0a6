"""The layout value: an alignment per array, a distribution of the one
program template, and every fact derived from the two.

A layout is

* per array an :class:`Alignment` — ``axis_map[d]`` is the template
  dimension array dimension ``d`` maps to (offset/stride alignment is
  canonical, as in the paper's prototype); template dimensions an array
  does not cover *replicate* it;
* per template dimension a :class:`DimDistribution`, the pair
  ``(procs, block)``: ``block == 0`` is ``BLOCK`` (one run of
  ``ceil(extent / procs)`` per processor), ``1`` is ``CYCLIC``, ``b`` is
  ``BLOCK_CYCLIC(b)``, and ``procs == 1`` is ``*`` (not distributed).

Everything else is derived on the value, once.  Ownership is one
formula — ``owner(i) = ((i - 1) // run) % procs`` with ``run`` the
format's contiguous run length — and :class:`DimDistribution` is its
only home.  A :class:`Distribution` memoises its processor grid and
the rank arithmetic over it; a :class:`DataLayout` memoises, per array,
how the array sits on that grid (:class:`ArrayMapping`), of which the
``identity`` is a function of ``(axis_map, distribution)`` only and is
shared by every layout of an analysis.  :func:`needs_remap` is the one
rule deciding whether an array moves between two layouts.  The compiler
model, the estimator, the SPMD generator, the remapping edges of the
layout graph and the HPF writer all read these and derive nothing
themselves.  Memoised facts are not dataclass fields: they take no part
in ``==``, ``hash`` or ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from ..frontend.symbols import ArraySymbol
from .template import Template

#: format labels — what ``DimDistribution.kind`` answers, for display
BLOCK = "block"
CYCLIC = "cyclic"
BLOCK_CYCLIC = "block_cyclic"
SERIAL = "*"


@dataclass(frozen=True)
class Alignment:
    """Map of array dimensions to template dimensions.

    ``axis_map[d]`` is the template dimension array dimension ``d`` (0-based)
    is aligned with.  Must be injective.
    """

    axis_map: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.axis_map)) != len(self.axis_map):
            raise ValueError(f"alignment {self.axis_map} maps two array "
                             "dimensions to one template dimension")

    @property
    def rank(self) -> int:
        return len(self.axis_map)

    def template_dim(self, array_dim: int) -> int:
        return self.axis_map[array_dim]

    def array_dim(self, template_dim: int) -> Optional[int]:
        """The array dimension aligned with ``template_dim``, or None when
        the array is replicated along it."""
        for d, t in enumerate(self.axis_map):
            if t == template_dim:
                return d
        return None

    @classmethod
    def canonical(cls, rank: int) -> "Alignment":
        return cls(axis_map=tuple(range(rank)))

    def is_canonical(self) -> bool:
        return self.axis_map == tuple(range(self.rank))

    def __str__(self) -> str:
        return "align(" + ",".join(f"d{a}->t{t}" for a, t in
                                   enumerate(self.axis_map)) + ")"


@dataclass(frozen=True)
class DimDistribution:
    """Distribution of one template dimension: ``procs`` processors
    dealt contiguous runs of ``block`` indices round-robin (``block ==
    0``: one run each, as long as the extent requires)."""

    procs: int = 1
    block: int = 0

    def __post_init__(self) -> None:
        if self.procs < 1:
            raise ValueError("a template dimension needs procs >= 1")
        if self.block < 0:
            raise ValueError("a block size cannot be negative")

    @property
    def is_distributed(self) -> bool:
        return self.procs > 1

    @property
    def format(self) -> str:
        """The HPF spelling: ``*``, ``block``, ``cyclic`` or ``cyclic(b)``."""
        if not self.is_distributed:
            return SERIAL
        if self.block > 1:
            return f"cyclic({self.block})"
        return CYCLIC if self.block else BLOCK

    @property
    def kind(self) -> str:
        """The format's name, a label only: nothing computes from it."""
        if self.is_distributed and self.block > 1:
            return BLOCK_CYCLIC
        return self.format

    # -- ownership of the 1-based indices 1..extent ---------------------------

    def run(self, extent: int) -> int:
        """Length of one contiguously owned run."""
        return self.block or max(-(-extent // self.procs), 1)

    def owner(self, index: int, extent: int) -> int:
        return ((index - 1) // self.run(extent)) % self.procs

    def runs(self, extent: int) -> int:
        """Runs the busiest processor owns (1 under BLOCK)."""
        return max(-(-extent // (self.procs * self.run(extent))), 1)

    def owned_runs(self, coord: int, extent: int) -> Iterator[Tuple[int, int]]:
        """Inclusive ``(lo, hi)`` of every run processor ``coord`` owns."""
        run = self.run(extent)
        for lo in range(coord * run + 1, extent + 1, run * self.procs):
            yield lo, min(lo + run - 1, extent)

    def local_extent(self, extent: int) -> int:
        """Indices the busiest processor owns."""
        run = self.run(extent)
        rounds, rest = divmod(extent, run * self.procs)
        return rounds * run + min(rest, run)

    def __str__(self) -> str:
        if not self.is_distributed:
            return SERIAL
        return f"{self.format}@{self.procs}"


class ArrayMapping(NamedTuple):
    """How one array sits on a distribution's processor grid."""

    #: ``(array_dim, template_dim, procs)`` per distributed dimension
    distributed: Tuple[Tuple[int, int, int], ...]
    #: ``(template_dim, procs)`` per grid axis the array is replicated over
    replicated: Tuple[Tuple[int, int], ...]
    #: hashable behavioural identity: ``(array_dim, procs, block)`` per
    #: distributed dimension, then the replication factors.  Equal
    #: identities place every element on the same processors, and the
    #: first half is empty exactly when the array is fully replicated.
    #: The factors carry no grid position and the formats no extent, so
    #: two placements it keeps apart may still coincide (BLOCK and the
    #: BLOCK-CYCLIC of the same run length), and a lower-rank array
    #: replicated over different axes of one multi-dimensional grid is
    #: the one pair it cannot tell apart.
    identity: Tuple[Tuple[Tuple[int, int, int], ...], Tuple[int, ...]]


@dataclass(frozen=True)
class Distribution:
    """Distribution of every template dimension."""

    dims: Tuple[DimDistribution, ...]

    @property
    def rank(self) -> int:
        return len(self.dims)

    @classmethod
    def one_dim(cls, rank: int, dim: int, dist: DimDistribution
                ) -> "Distribution":
        """``dist`` on one template dimension, serial elsewhere."""
        return cls(dims=tuple(
            dist if d == dim else DimDistribution() for d in range(rank)
        ))

    @classmethod
    def one_dim_block(cls, rank: int, dim: int, procs: int) -> "Distribution":
        """The prototype's candidate shape: BLOCK on one template
        dimension, serial elsewhere."""
        return cls.one_dim(rank, dim, DimDistribution(procs=procs))

    @classmethod
    def serial(cls, rank: int) -> "Distribution":
        return cls(dims=(DimDistribution(),) * rank)

    # -- the processor grid -----------------------------------------------------

    @cached_property
    def signature(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(template_dim, procs, block)`` per distributed dimension, in
        template order: the distribution without its serial padding."""
        return tuple(
            (d, dim.procs, dim.block) for d, dim in enumerate(self.dims)
            if dim.is_distributed
        )

    @cached_property
    def grid(self) -> Tuple[Tuple[int, int], ...]:
        """The processor arrangement, ``(template_dim, procs)`` per
        distributed dimension; linear ranks are row-major over it."""
        return tuple((d, procs) for d, procs, _block in self.signature)

    @cached_property
    def _distributed_dims(self) -> Tuple[int, ...]:
        return tuple(d for d, _procs in self.grid)

    def distributed_dims(self) -> Tuple[int, ...]:
        return self._distributed_dims

    @cached_property
    def total_procs(self) -> int:
        total = 1
        for _d, procs in self.grid:
            total *= procs
        return total

    def coords(self, rank: int) -> Dict[int, int]:
        """Grid coordinate, per distributed template dimension, of a
        linear rank."""
        coords: Dict[int, int] = {}
        for tdim, procs in reversed(self.grid):
            coords[tdim] = rank % procs
            rank //= procs
        return coords

    @cached_property
    def _axis_groups(self) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
        out = {}
        for tdim in self.distributed_dims():
            groups: Dict[Tuple, List[int]] = {}
            for rank in range(self.total_procs):
                coords = self.coords(rank)
                del coords[tdim]
                groups.setdefault(tuple(coords.items()), []).append(rank)
            out[tdim] = tuple(tuple(g) for g in groups.values())
        return out

    def axis_groups(self, tdim: int) -> Tuple[Tuple[int, ...], ...]:
        """Rank groups along grid axis ``tdim``: one tuple of ranks (in
        axis-coordinate order) per combination of the other axes'
        coordinates.  A 1-D distribution has one group: the machine."""
        return self._axis_groups[tdim]

    # -- arrays on the grid -----------------------------------------------------

    @cached_property
    def _mappings(self) -> Dict[Tuple[int, ...], ArrayMapping]:
        return {}

    def mapping(self, axis_map: Tuple[int, ...]) -> ArrayMapping:
        """How an array aligned by ``axis_map`` sits on the grid; built
        once per distinct ``axis_map`` and shared by every layout over
        this distribution."""
        mapping = self._mappings.get(axis_map)
        if mapping is None:
            array_dim = {t: d for d, t in enumerate(axis_map)}
            covered = [dim for dim in self.signature if dim[0] in array_dim]
            distributed = tuple(
                (array_dim[t], t, procs) for t, procs, _block in covered
            )
            replicated = tuple(
                (t, procs) for t, procs in self.grid if t not in array_dim
            )
            identity = (
                tuple((array_dim[t], procs, block)
                      for t, procs, block in covered),
                tuple(procs for _t, procs in replicated),
            )
            mapping = self._mappings[axis_map] = ArrayMapping(
                distributed, replicated, identity
            )
        return mapping

    def __str__(self) -> str:
        return "dist(" + ", ".join(str(d) for d in self.dims) + ")"


@dataclass(frozen=True)
class DataLayout:
    """A complete candidate layout: per-array alignments + one
    distribution of the shared template."""

    template: Template
    alignments: Tuple[Tuple[str, Alignment], ...]  # sorted by array name
    distribution: Distribution

    @classmethod
    def build(
        cls,
        template: Template,
        alignments: Mapping[str, Alignment],
        distribution: Distribution,
    ) -> "DataLayout":
        if distribution.rank != template.rank:
            raise ValueError("distribution rank must match template rank")
        return cls(
            template=template,
            alignments=tuple(sorted(alignments.items())),
            distribution=distribution,
        )

    @property
    def alignment_map(self) -> Dict[str, Alignment]:
        return dict(self.alignments)

    @property
    def nprocs(self) -> int:
        return self.distribution.total_procs

    def arrays(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.alignments)

    @cached_property
    def _arrays(self) -> Dict[str, Tuple[Alignment, ArrayMapping]]:
        return {
            name: (alignment, self.distribution.mapping(alignment.axis_map))
            for name, alignment in self.alignments
        }

    def _entry(self, array: str) -> Tuple[Alignment, ArrayMapping]:
        try:
            return self._arrays[array]
        except KeyError:
            raise KeyError(
                f"array {array!r} has no alignment in this layout"
            ) from None

    def alignment_of(self, array: str) -> Alignment:
        alignment, _mapping = self._entry(array)
        return alignment

    def mapping_of(self, array: str) -> ArrayMapping:
        _alignment, mapping = self._entry(array)
        return mapping

    # -- ownership queries ---------------------------------------------------

    def distributed_array_dims(self, array: str) -> Tuple[Tuple[int, int, int], ...]:
        """``(array_dim, template_dim, procs)`` for each distributed
        dimension of ``array``."""
        return self.mapping_of(array).distributed

    def replicated_over(self, array: str) -> Tuple[Tuple[int, int], ...]:
        """``(template_dim, procs)`` for distributed template dims the
        array is *not* aligned with (i.e. it is replicated across them)."""
        return self.mapping_of(array).replicated

    def is_fully_replicated(self, array: str) -> bool:
        return not self.distributed_array_dims(array)

    def local_elements(self, symbol: ArraySymbol) -> int:
        """Element count of ``symbol`` on the processor holding most."""
        total = symbol.element_count
        for adim, tdim, _procs in self.distributed_array_dims(symbol.name):
            extent = symbol.extents[adim]
            local = self.distribution.dims[tdim].local_extent(extent)
            total = total // extent * local
        return max(total, 1)

    # -- identity / dedup ------------------------------------------------------

    def array_identity(self, array: str) -> Tuple:
        """Behavioural identity of one array's placement
        (:attr:`ArrayMapping.identity`)."""
        return self.mapping_of(array).identity

    @cached_property
    def _signature(self) -> Tuple:
        return tuple(
            (name,) + mapping.identity
            for name, (_alignment, mapping) in self._arrays.items()
        )

    def signature(self) -> Tuple:
        """Hashable *behavioural* identity: per-array distribution pattern.

        Two (alignment, distribution) pairs that partition every array the
        same way — e.g. transposed alignment + column distribution versus
        canonical alignment + row distribution — share a signature, which
        implements the paper's candidate dedup for symmetric orientations.
        """
        return self._signature

    def describe(self) -> str:
        """Human-readable HPF-style description."""
        lines = [f"!HPF$ {self.template}  {self.distribution}"]
        for name, alignment in self.alignments:
            lines.append(f"!HPF$ ALIGN {name} {alignment}")
        return "\n".join(lines)


def needs_remap(from_layout: DataLayout, to_layout: DataLayout,
                array: str) -> bool:
    """Whether ``array`` is redistributed when control passes from
    ``from_layout`` to ``to_layout``: both cover it, they place it
    differently, and the source distributes data — leaving a fully
    replicated layout is free, every processor already holds the array."""
    src = from_layout._arrays.get(array)
    dst = to_layout._arrays.get(array)
    if src is None or dst is None:
        return False
    (_, src_mapping), (_, dst_mapping) = src, dst
    return bool(src_mapping.distributed) \
        and src_mapping.identity != dst_mapping.identity
