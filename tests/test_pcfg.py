"""PCFG construction and frequency tests, and the graph's order against
networkx's (the one test that imports networkx, from the dev extra)."""

import random

import networkx as nx
import pytest

from repro.analysis import pcfg as pcfg_module
from repro.analysis.pcfg import ENTRY, EXIT, PCFG, PhaseGraph, build_pcfg
from repro.analysis.phases import partition_phases
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table
from repro.qa.generator import GeneratorConfig, generate_program

from .test_alignment_pinned import populations


def pcfg_for(src, **kwargs):
    prog = parse_source(src)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table, **kwargs)
    return build_pcfg(part)


def wrap(body):
    return (
        "program t\n"
        "      integer n\n      parameter (n = 8)\n"
        "      real a(n), b(n), c(n)\n      real s\n"
        "      integer i, t1, t2\n"
        f"{body}"
        "      end\n"
    )


PHASE_A = "      do i = 1, n\n        a(i) = 1.0\n      enddo\n"
PHASE_B = "      do i = 1, n\n        b(i) = a(i)\n      enddo\n"
PHASE_C = "      do i = 1, n\n        c(i) = b(i)\n      enddo\n"


class TestStraightLine:
    def test_chain_frequencies(self):
        pcfg = pcfg_for(wrap(PHASE_A + PHASE_B + PHASE_C))
        assert pcfg.phase_frequency(0) == pytest.approx(1.0)
        assert pcfg.phase_frequency(2) == pytest.approx(1.0)
        assert sorted(pcfg.transitions()) == [
            (0, 1, pytest.approx(1.0)),
            (1, 2, pytest.approx(1.0)),
        ]

    def test_entry_and_exit_edges(self):
        pcfg = pcfg_for(wrap(PHASE_A + PHASE_B))
        assert pcfg.entry_edges() == [(0, pytest.approx(1.0))]
        assert EXIT in pcfg.graph.succ[1]

    def test_reverse_postorder_is_program_order(self):
        pcfg = pcfg_for(wrap(PHASE_A + PHASE_B + PHASE_C))
        assert pcfg.reverse_postorder() == [0, 1, 2]


class TestLoops:
    def test_loop_multiplies_frequency(self):
        body = (
            "      do t1 = 1, 5\n"
            + PHASE_A + PHASE_B
            + "      enddo\n"
        )
        pcfg = pcfg_for(wrap(body))
        assert pcfg.phase_frequency(0) == pytest.approx(5.0)
        assert pcfg.phase_frequency(1) == pytest.approx(5.0)

    def test_back_edge_frequency(self):
        body = "      do t1 = 1, 5\n" + PHASE_A + PHASE_B + "      enddo\n"
        pcfg = pcfg_for(wrap(body))
        trans = {(u, v): f for u, v, f in pcfg.transitions()}
        assert trans[(0, 1)] == pytest.approx(5.0)
        assert trans[(1, 0)] == pytest.approx(4.0)  # trips - 1

    def test_nested_loops_multiply(self):
        body = (
            "      do t1 = 1, 3\n"
            "        do t2 = 1, 4\n"
            + PHASE_A
            + "        enddo\n"
            "      enddo\n"
        )
        pcfg = pcfg_for(wrap(body))
        assert pcfg.phase_frequency(0) == pytest.approx(12.0)
        trans = {(u, v): f for u, v, f in pcfg.transitions()}
        # Self back-edge: 11 of 12 executions are followed by another.
        assert trans[(0, 0)] == pytest.approx(11.0)

    def test_phases_before_and_after_loop(self):
        body = (
            PHASE_A
            + "      do t1 = 1, 3\n" + PHASE_B + "      enddo\n"
            + PHASE_C
        )
        pcfg = pcfg_for(wrap(body))
        trans = {(u, v): f for u, v, f in pcfg.transitions()}
        assert trans[(0, 1)] == pytest.approx(1.0)
        assert trans[(1, 1)] == pytest.approx(2.0)
        assert trans[(1, 2)] == pytest.approx(1.0)

    def test_empty_loop_is_transparent(self):
        body = (
            PHASE_A
            + "      do t1 = 1, 5\n        s = s + 1.0\n      enddo\n"
            + PHASE_B
        )
        pcfg = pcfg_for(wrap(body))
        trans = {(u, v): f for u, v, f in pcfg.transitions()}
        assert trans[(0, 1)] == pytest.approx(1.0)

    def test_one_trip_loop_is_its_body(self):
        # no back-edge mass, so the loop leaves no placeholder behind
        once = pcfg_for(wrap(
            "      do t1 = 1, 1\n" + PHASE_A + PHASE_B + "      enddo\n"
        ))
        inline = pcfg_for(wrap(PHASE_A + PHASE_B))
        assert once.edges() == inline.edges()
        assert once.graph.freq == inline.graph.freq


class TestBranchesInPCFG:
    def test_branch_splits_frequency(self):
        body = (
            PHASE_A
            + "      if (s .gt. 0.0) then\n" + PHASE_B + "      endif\n"
            + PHASE_C
        )
        pcfg = pcfg_for(wrap(body))
        assert pcfg.phase_frequency(1) == pytest.approx(0.5)
        trans = {(u, v): f for u, v, f in pcfg.transitions()}
        assert trans[(0, 1)] == pytest.approx(0.5)
        assert trans[(0, 2)] == pytest.approx(0.5)  # fall-through
        assert trans[(1, 2)] == pytest.approx(0.5)

    def test_branch_else_side(self):
        body = (
            PHASE_A
            + "      if (s .gt. 0.0) then\n" + PHASE_B
            + "      else\n" + PHASE_C + "      endif\n"
        )
        pcfg = pcfg_for(wrap(body))
        assert pcfg.phase_frequency(1) == pytest.approx(0.5)
        assert pcfg.phase_frequency(2) == pytest.approx(0.5)

    def test_branch_inside_loop(self):
        body = (
            "      do t1 = 1, 4\n"
            + PHASE_A
            + "        if (s .gt. 0.0) then\n" + PHASE_B + "        endif\n"
            + "      enddo\n"
        )
        pcfg = pcfg_for(wrap(body), branch_probability=0.25)
        assert pcfg.phase_frequency(0) == pytest.approx(4.0)
        assert pcfg.phase_frequency(1) == pytest.approx(1.0)


class TestProgramPCFGs:
    def test_adi_back_edge_exists(self, adi_small):
        _p, _s, _part, pcfg = adi_small
        trans = {(u, v) for u, v, _ in pcfg.transitions()}
        # last phase of the time loop transfers back to the first in-loop
        # phase (phase 1; phase 0 is initialization outside the loop)
        assert (8, 1) in trans

    def test_erlebacher_is_straight_line(self, erlebacher_small):
        _p, _s, part, pcfg = erlebacher_small
        trans = pcfg.transitions()
        assert len(trans) == len(part) - 1
        assert all(v == u + 1 for u, v, _ in trans)

    def test_total_flow_conserved(self, shallow_small):
        _p, _s, _part, pcfg = shallow_small
        # Entry emits mass 1, exit absorbs mass 1.
        exit_mass = sum(f for _u, v, f in pcfg.edges() if v == EXIT)
        assert exit_mass == pytest.approx(1.0)


class MirroredGraph(PhaseGraph):
    """A phase graph that replays each mutation on a networkx DiGraph
    the way the builder once drove one."""

    __slots__ = ("nx",)

    def __init__(self):
        super().__init__()
        self.nx = nx.DiGraph()

    def add_node(self, node, phase=None):
        super().add_node(node, phase)
        self.nx.add_node(node)

    def add_edge(self, src, dst, freq):
        super().add_edge(src, dst, freq)
        if self.nx.has_edge(src, dst):
            self.nx[src][dst]["freq"] += freq
        else:
            self.nx.add_edge(src, dst, freq=freq)

    def remove_node(self, node):
        if node in self.nx:
            self.nx.remove_node(node)
        return super().remove_node(node)


def distinct_sources():
    """Every distinct source of the ``bench/`` populations and the
    corpus, then generator seeds 0..199."""
    sources = {
        source: None
        for rows in populations().values() for _key, source, _c in rows
    }
    for seed in range(200):
        sources.setdefault(generate_program(seed, GeneratorConfig()).source)
    return list(sources)


def assert_networkx_order(pcfg):
    """Node order, successor order with frequencies, edge count and
    reverse postorder equal those of the mirrored networkx graph."""
    oracle = pcfg.graph.nx
    assert list(pcfg.graph.succ) == list(oracle)
    for node, row in pcfg.graph.succ.items():
        assert list(row.items()) == [
            (succ, data["freq"]) for succ, data in oracle[node].items()
        ]
    assert pcfg.graph.number_of_edges() == oracle.number_of_edges()
    postorder = list(nx.dfs_postorder_nodes(oracle, source=ENTRY))
    assert pcfg.reverse_postorder() == [
        n for n in reversed(postorder) if isinstance(n, int)
    ]


class TestOrderIsNetworkxOrder:
    def test_every_bench_and_generated_pcfg(self, monkeypatch):
        monkeypatch.setattr(pcfg_module, "PhaseGraph", MirroredGraph)
        sources = distinct_sources()
        assert len(sources) > 500
        for source in sources:
            assert_networkx_order(pcfg_for(source))

    def test_random_graphs(self):
        # Built programs visit phases in index order; random edge orders
        # with back- and cross-edges give the DFS other orders to match.
        rng = random.Random(0)
        reordered = 0
        for _ in range(200):
            graph = MirroredGraph()
            n = rng.randint(2, 12)
            for node in [ENTRY, EXIT, *range(n)]:
                graph.add_node(node)
            graph.add_edge(ENTRY, rng.randrange(n), 1.0)
            for _ in range(3 * n):
                src = rng.randrange(n)
                dst = rng.choice([EXIT, *range(n)])
                graph.add_edge(src, dst, rng.random())
            placeholder = object()
            graph.add_edge(placeholder, rng.randrange(n), 1.0)
            graph.remove_node(placeholder)
            pcfg = PCFG(graph=graph, partition=None)
            assert_networkx_order(pcfg)
            reordered += pcfg.reverse_postorder() != sorted(
                pcfg.reverse_postorder())
        assert reordered > 100
