"""The layout value: template, alignment, distribution, the ownership
formulas, per-array identity, and the wire format built from them."""

import ast
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.distribution import layouts as layouts_module
from repro.distribution.layouts import (
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
from repro.distribution.template import Template, determine_template
from repro.frontend import build_symbol_table, parse_source


@pytest.fixture(scope="module")
def symbols():
    src = (
        "program t\n"
        "      integer n\n      parameter (n = 16)\n"
        "      double precision a(n, n)\n"
        "      real v(n)\n"
        "      real cube(4, 8, 2)\n"
        "      end\n"
    )
    return build_symbol_table(parse_source(src))


class TestTemplate:
    def test_rank_is_max_array_rank(self, symbols):
        tpl = determine_template(symbols)
        assert tpl.rank == 3

    def test_extents_are_dimensionwise_maxima(self, symbols):
        tpl = determine_template(symbols)
        assert tpl.extents == (16, 16, 2)

    def test_no_arrays_raises(self):
        table = build_symbol_table(
            parse_source("program t\n      real x\n      end\n")
        )
        with pytest.raises(ValueError):
            determine_template(table)

    def test_invalid_template(self):
        with pytest.raises(ValueError):
            Template(rank=2, extents=(4,))
        with pytest.raises(ValueError):
            Template(rank=1, extents=(0,))


class TestAlignment:
    def test_canonical(self):
        al = Alignment.canonical(3)
        assert al.axis_map == (0, 1, 2)
        assert al.is_canonical()

    def test_array_dim_lookup(self):
        al = Alignment(axis_map=(1, 0))
        assert al.array_dim(0) == 1
        assert al.array_dim(1) == 0
        assert al.template_dim(0) == 1

    def test_replicated_dim_lookup(self):
        al = Alignment(axis_map=(2,))
        assert al.array_dim(0) is None
        assert al.array_dim(2) == 0

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            Alignment(axis_map=(0, 0))


class TestDistribution:
    def test_one_dim_block(self):
        d = Distribution.one_dim_block(3, 1, 8)
        assert d.distributed_dims() == (1,)
        assert d.total_procs == 8
        assert d.dims[0].kind == SERIAL

    def test_serial(self):
        d = Distribution.serial(2)
        assert d.total_procs == 1
        assert d.distributed_dims() == ()

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            DimDistribution(procs=0)
        with pytest.raises(ValueError):
            DimDistribution(procs=4, block=-1)

    def test_kind_is_a_label_of_the_pair(self):
        assert DimDistribution().kind == SERIAL
        assert DimDistribution(procs=1, block=4).kind == SERIAL
        assert DimDistribution(procs=4).kind == BLOCK
        assert DimDistribution(procs=4, block=1).kind == CYCLIC
        assert DimDistribution(procs=4, block=2).kind == BLOCK_CYCLIC

    def test_multi_dim_total_procs(self):
        d = Distribution(dims=(
            DimDistribution(procs=4),
            DimDistribution(procs=2),
        ))
        assert d.total_procs == 8
        assert d.grid == ((0, 4), (1, 2))


class TestBlockMath:
    def test_block_owner_basic(self):
        # 16 elements over 4 procs: blocks of 4.
        block = DimDistribution(procs=4)
        assert block.owner(1, 16) == 0
        assert block.owner(4, 16) == 0
        assert block.owner(5, 16) == 1
        assert block.owner(16, 16) == 3

    def test_block_bounds_cover(self):
        assert list(DimDistribution(procs=4).owned_runs(2, 16)) == [(9, 12)]

    def test_uneven_blocks(self):
        # 10 over 4: ceil block 3 -> 3,3,3,1
        block = DimDistribution(procs=4)
        sizes = [
            sum(hi - lo + 1 for lo, hi in block.owned_runs(p, 10))
            for p in range(4)
        ]
        assert sizes == [3, 3, 3, 1]

    def test_cyclic_owner(self):
        cyclic = DimDistribution(procs=4, block=1)
        assert cyclic.owner(1, 16) == 0
        assert cyclic.owner(5, 16) == 0
        assert cyclic.owner(6, 16) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        extent=st.integers(min_value=1, max_value=400),
        procs=st.integers(min_value=1, max_value=64),
    )
    def test_blocks_partition_index_space(self, extent, procs):
        """BLOCK is one run per processor; the runs partition the index
        space in processor order and agree with ``owner``."""
        block = DimDistribution(procs=procs)
        covered = []
        for p in range(procs):
            runs = list(block.owned_runs(p, extent))
            assert len(runs) <= 1
            for lo, hi in runs:
                for idx in range(lo, hi + 1):
                    covered.append(idx)
                    assert block.owner(idx, extent) == p
        assert covered == list(range(1, extent + 1))

    @pytest.mark.parametrize("block", [0, 1, 2, 3, 4, 7])
    def test_every_format_against_brute_force(self, block):
        """The value's own oracle: for every extent and processor count,
        owners partition ``1..extent``, ``owned_runs`` lists exactly what
        ``owner`` assigns, and ``local_extent`` / ``runs`` are the
        busiest processor's counts."""
        for extent in range(1, 25):
            for procs in range(1, 7):
                dist = DimDistribution(procs=procs, block=block)
                owners = [dist.owner(i, extent) for i in range(1, extent + 1)]
                assert all(0 <= o < procs for o in owners)
                run_counts = []
                for coord in range(procs):
                    runs = list(dist.owned_runs(coord, extent))
                    run_counts.append(len(runs))
                    owned = [i for lo, hi in runs for i in range(lo, hi + 1)]
                    assert owned == [
                        i for i, o in enumerate(owners, start=1) if o == coord
                    ], (block, extent, procs, coord)
                    assert all(hi - lo + 1 <= dist.run(extent)
                               for lo, hi in runs)
                assert dist.local_extent(extent) == max(
                    owners.count(c) for c in range(procs)
                )
                assert dist.runs(extent) == max(run_counts)


class TestDataLayout:
    def make(self, symbols, axis_a=(0, 1), dist_dim=0, procs=4):
        tpl = Template(rank=2, extents=(16, 16))
        return DataLayout.build(
            template=tpl,
            alignments={
                "a": Alignment(axis_map=axis_a),
                "v": Alignment(axis_map=(0,)),
            },
            distribution=Distribution.one_dim_block(2, dist_dim, procs),
        )

    def test_distributed_array_dims(self, symbols):
        layout = self.make(symbols)
        assert layout.distributed_array_dims("a") == ((0, 0, 4),)
        assert layout.distributed_array_dims("v") == ((0, 0, 4),)

    def test_replication(self, symbols):
        layout = self.make(symbols, dist_dim=1)
        assert layout.distributed_array_dims("v") == ()
        assert layout.replicated_over("v") == ((1, 4),)
        assert layout.is_fully_replicated("v")

    def test_local_elements(self, symbols):
        layout = self.make(symbols)
        assert layout.local_elements(symbols.array("a")) == 64
        assert layout.local_elements(symbols.array("v")) == 4

    def test_local_elements_replicated(self, symbols):
        layout = self.make(symbols, dist_dim=1)
        assert layout.local_elements(symbols.array("v")) == 16

    @pytest.mark.parametrize("block", [0, 1, 2, 4])
    def test_local_elements_counts_the_busiest_processor(self, block):
        """BLOCK-CYCLIC(4) of extent 10 on 4 processors gives processor
        0 four elements, not ceil(10/4) = 3."""
        table = build_symbol_table(parse_source(
            "program t\n      real w(10, 3)\n      end\n"
        ))
        dist = DimDistribution(procs=4, block=block)
        layout = DataLayout.build(
            template=Template(rank=2, extents=(10, 3)),
            alignments={"w": Alignment.canonical(2)},
            distribution=Distribution.one_dim(2, 0, dist),
        )
        owners = [dist.owner(i, 10) for i in range(1, 11)]
        busiest = max(owners.count(p) for p in range(4))
        assert layout.local_elements(table.array("w")) == busiest * 3
        if block == 4:
            assert busiest == 4

    def test_orientation_symmetry_signature(self, symbols):
        """Transposed alignment + row distribution == canonical + column
        distribution (the paper's dedup rule)."""
        transposed_row = self.make(symbols, axis_a=(1, 0), dist_dim=0)
        canonical_col = self.make(symbols, axis_a=(0, 1), dist_dim=1)
        # v differs (aligned t0 in both) so compare only a's entry.
        sig_t = dict(x[:2] for x in [e for e in transposed_row.signature()])
        sig_c = dict(x[:2] for x in [e for e in canonical_col.signature()])
        assert sig_t["a"] == sig_c["a"]

    def test_alignment_of_missing_array(self, symbols):
        layout = self.make(symbols)
        with pytest.raises(KeyError):
            layout.alignment_of("zzz")

    def test_rank_mismatch_rejected(self, symbols):
        tpl = Template(rank=2, extents=(16, 16))
        with pytest.raises(ValueError):
            DataLayout.build(
                template=tpl,
                alignments={},
                distribution=Distribution.serial(3),
            )

    def test_describe_mentions_arrays(self, symbols):
        layout = self.make(symbols)
        text = layout.describe()
        assert "ALIGN a" in text and "ALIGN v" in text


def element_map(axis_map, dist, extents):
    """Brute force: every element's set of owning linear ranks (row-major
    over the distributed template dimensions, in template order)."""
    grid = [(t, d) for t, d in enumerate(dist.dims) if d.procs > 1]
    placed = {}
    for element in itertools.product(*(range(1, e + 1) for e in extents)):
        choices = []
        for tdim, dim in grid:
            if tdim in axis_map:
                adim = axis_map.index(tdim)
                choices.append([dim.owner(element[adim], extents[adim])])
            else:
                choices.append(range(dim.procs))  # replicated along tdim
        ranks = set()
        for coords in itertools.product(*choices):
            rank = 0
            for (_tdim, dim), coord in zip(grid, coords):
                rank = rank * dim.procs + coord
            ranks.add(rank)
        placed[element] = frozenset(ranks)
    return placed


class TestArrayIdentity:
    """The paper's symmetric-orientation dedup, checked instead of
    assumed: two placements of an array share an identity iff they put
    every element on the same processors."""

    TEMPLATE = Template(rank=2, extents=(12, 12))
    #: extent 12 over 2 or 3 processors: BLOCK's run (6, 4) is none of
    #: the BLOCK-CYCLIC sizes, so no two formats coincide by accident
    #: (the identity does not see extents, and keeps BLOCK apart from
    #: the BLOCK-CYCLIC of the same run length)
    ONE_DIM = [
        Distribution.one_dim(2, dim, DimDistribution(procs, block))
        for dim in (0, 1) for procs in (2, 3) for block in (0, 1, 2, 3)
    ]
    GRIDS = [
        Distribution(dims=(DimDistribution(p0), DimDistribution(p1)))
        for p0, p1 in ((2, 2), (2, 3), (3, 2))
    ]

    def check(self, extents, axis_maps, distributions):
        placements = []
        for axis_map in axis_maps:
            for dist in distributions:
                layout = DataLayout.build(
                    self.TEMPLATE, {"x": Alignment(axis_map)}, dist
                )
                placements.append((
                    layout, element_map(axis_map, dist, extents)
                ))
        equal = 0
        for (one, map_one), (two, map_two) in itertools.combinations(
            placements, 2
        ):
            same = one.array_identity("x") == two.array_identity("x")
            assert same == (map_one == map_two), (
                one.describe(), two.describe()
            )
            # the remap rule follows the identity
            assert needs_remap(one, two, "x") == (
                not same and bool(one.distributed_array_dims("x"))
            )
            equal += same
        return equal

    def test_full_rank_array_on_every_shape(self):
        # Replication factors carry no grid position, so arrays of lower
        # rank are compared on 1-D distributions only (below).
        equal = self.check(
            (12, 12), [(0, 1), (1, 0)], self.ONE_DIM + self.GRIDS
        )
        # transposed alignment + swapped 1-D distribution, 16 times
        assert equal == len(self.ONE_DIM)

    def test_lower_rank_array_distributed_or_replicated(self):
        assert self.check((12,), [(0,), (1,)], self.ONE_DIM) > 0

    def test_cyclic_is_block_cyclic_of_one(self):
        assert DimDistribution(procs=3, block=1).kind == CYCLIC
        assert str(DimDistribution(procs=3, block=1)) == "cyclic@3"

    def test_uncovered_array_is_never_remapped(self):
        layout = DataLayout.build(
            self.TEMPLATE, {"x": Alignment((0, 1))}, self.ONE_DIM[0]
        )
        other = DataLayout.build(
            self.TEMPLATE, {"y": Alignment((0, 1))}, self.ONE_DIM[4]
        )
        assert not needs_remap(layout, other, "x")
        assert not needs_remap(other, layout, "x")


A_V = {"a": Alignment((0, 1)), "v": Alignment((0,))}
A_V_TEXT = {"a": "align(d0->t0,d1->t1)", "v": "align(d0->t0)"}
SERIAL_DIM = DimDistribution()

#: the reply's ``layouts`` entries, the answer cache's payload and what
#: ``bench/expected.json`` digests: (alignments, dims, rendering)
WIRE_GOLDENS = {
    "block": (A_V, (DimDistribution(4), SERIAL_DIM), {
        "distribution": "dist(block@4, *)",
        "alignments": A_V_TEXT,
        "hpf": "!HPF$ TEMPLATE(16, 16)  dist(block@4, *)\n"
               "!HPF$ ALIGN a align(d0->t0,d1->t1)\n"
               "!HPF$ ALIGN v align(d0->t0)",
    }),
    "cyclic": (A_V, (DimDistribution(4, 1), SERIAL_DIM), {
        "distribution": "dist(cyclic@4, *)",
        "alignments": A_V_TEXT,
        "hpf": "!HPF$ TEMPLATE(16, 16)  dist(cyclic@4, *)\n"
               "!HPF$ ALIGN a align(d0->t0,d1->t1)\n"
               "!HPF$ ALIGN v align(d0->t0)",
    }),
    "block-cyclic": (A_V, (DimDistribution(4, 4), SERIAL_DIM), {
        "distribution": "dist(cyclic(4)@4, *)",
        "alignments": A_V_TEXT,
        "hpf": "!HPF$ TEMPLATE(16, 16)  dist(cyclic(4)@4, *)\n"
               "!HPF$ ALIGN a align(d0->t0,d1->t1)\n"
               "!HPF$ ALIGN v align(d0->t0)",
    }),
    "grid": (A_V, (DimDistribution(2), DimDistribution(2)), {
        "distribution": "dist(block@2, block@2)",
        "alignments": A_V_TEXT,
        "hpf": "!HPF$ TEMPLATE(16, 16)  dist(block@2, block@2)\n"
               "!HPF$ ALIGN a align(d0->t0,d1->t1)\n"
               "!HPF$ ALIGN v align(d0->t0)",
    }),
    "serial": (A_V, (SERIAL_DIM, SERIAL_DIM), {
        "distribution": "dist(*, *)",
        "alignments": A_V_TEXT,
        "hpf": "!HPF$ TEMPLATE(16, 16)  dist(*, *)\n"
               "!HPF$ ALIGN a align(d0->t0,d1->t1)\n"
               "!HPF$ ALIGN v align(d0->t0)",
    }),
    "replicated-vector": (
        {"a": Alignment((1, 0)), "v": Alignment((0,))},
        (SERIAL_DIM, DimDistribution(4)),
        {
            "distribution": "dist(*, block@4)",
            "alignments": {"a": "align(d0->t1,d1->t0)",
                           "v": "align(d0->t0)"},
            "hpf": "!HPF$ TEMPLATE(16, 16)  dist(*, block@4)\n"
                   "!HPF$ ALIGN a align(d0->t1,d1->t0)\n"
                   "!HPF$ ALIGN v align(d0->t0)",
        },
    ),
}


class TestWireFormat:
    @pytest.mark.parametrize("name", sorted(WIRE_GOLDENS))
    def test_describe_and_serialize_layout_goldens(self, name):
        from repro.service.protocol import serialize_layout

        alignments, dims, golden = WIRE_GOLDENS[name]
        layout = DataLayout.build(
            Template(rank=2, extents=(16, 16)), alignments,
            Distribution(dims=dims),
        )
        assert layout.describe() == golden["hpf"]
        assert serialize_layout(layout) == golden

    def test_hpf_writer_spells_formats_like_the_value(self):
        from repro.tool.hpf_writer import _distribute_text

        for name, text in (("block", "block, *"), ("cyclic", "cyclic, *"),
                           ("block-cyclic", "cyclic(4), *"),
                           ("serial", "*, *")):
            alignments, dims, _golden = WIRE_GOLDENS[name]
            layout = DataLayout.build(
                Template(rank=2, extents=(16, 16)), alignments,
                Distribution(dims=dims),
            )
            assert _distribute_text(layout) == text


class TestDerivedOnce:
    def make(self):
        return DataLayout.build(
            Template(rank=2, extents=(16, 16)), A_V,
            Distribution((DimDistribution(2, 2), DimDistribution(2))),
        )

    def test_memoised_facts_are_not_part_of_the_value(self):
        fresh, used = self.make(), self.make()
        used.signature()
        used.distributed_array_dims("a")
        used.distribution.axis_groups(0)
        assert used.nprocs == 4
        assert vars(used) != vars(fresh)  # the memo is on the instance
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used.distribution == fresh.distribution
        assert repr(used.distribution) == repr(fresh.distribution)

    def test_one_analysis_derives_each_fact_once(self, monkeypatch):
        """One erlebacher@16 analysis reads the processor grid a thousand
        times and evaluates it once per distribution; it builds one
        array identity per distinct (axis_map, distribution)."""
        from repro.programs import PROGRAMS
        from repro.tool import AssistantConfig, run_assistant

        grids, identities = [], []
        signature = vars(Distribution)["signature"]
        derive = signature.func
        monkeypatch.setattr(
            signature, "func",
            lambda dist: grids.append(dist) or derive(dist),
        )
        mapping = layouts_module.ArrayMapping
        monkeypatch.setattr(
            layouts_module, "ArrayMapping",
            lambda *args: identities.append(args) or mapping(*args),
        )
        result = run_assistant(
            PROGRAMS["erlebacher"].source(n=16), AssistantConfig(nprocs=16)
        )
        layouts = [
            cand.layout
            for cands in result.layout_spaces.per_phase.values()
            for cand in cands
        ]
        assert layouts and grids
        assert len(grids) == len({id(dist) for dist in grids})
        distinct = {
            (alignment.axis_map, layout.distribution)
            for layout in layouts for _name, alignment in layout.alignments
        }
        assert 0 < len(identities) <= len(distinct)


class TestNoSecondCopy:
    """Keeps the fork from growing back: ownership and identity are
    decided in ``distribution/layouts.py`` and nowhere else."""

    ROOT = pathlib.Path(repro.__file__).parent
    LABELS = {"block", "cyclic", "block_cyclic"}
    LABEL_NAMES = {"BLOCK", "CYCLIC", "BLOCK_CYCLIC", "SERIAL"}
    SIGNATURE_HOMES = {"distribution/layouts.py", "alignment/search_space.py"}

    def compared_labels(self, compare):
        """Format labels a comparison mentions, as string constants or
        by the names of the constants."""
        for leaf in ast.walk(compare):
            if isinstance(leaf, ast.Constant):
                if leaf.value in self.LABELS:
                    yield repr(leaf.value)
            elif isinstance(leaf, (ast.Name, ast.Attribute)):
                name = leaf.id if isinstance(leaf, ast.Name) else leaf.attr
                if name in self.LABEL_NAMES:
                    yield name

    def offences(self):
        for path in sorted(self.ROOT.rglob("*.py")):
            where = path.relative_to(self.ROOT).as_posix()
            if where == "distribution/layouts.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare):
                    for label in self.compared_labels(node):
                        yield f"{where}:{node.lineno}: compares with {label}"
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)
                ) and "signature" in node.name.lower() \
                        and where not in self.SIGNATURE_HOMES:
                    yield f"{where}:{node.lineno}: defines {node.name}"

    def test_no_format_branch_or_signature_outside_the_value(self):
        assert list(self.offences()) == []
