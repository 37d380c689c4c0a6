"""Alignment information ordered by refinement, and the join that grows a
phase class (:meth:`repro.alignment.cag.Components.join`).

Includes hypothesis property tests over random partitionings of a fixed
node universe.
"""

from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.alignment.cag import CAG, Components
from repro.alignment.lattice import Partitioning

from .helpers import add_edge

NODES = [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("c", 0)]


def parts(*blocks):
    return Partitioning.of([set(b) for b in blocks])


def aligned(p: Partitioning, a, b) -> bool:
    return any({a, b} <= block for block in p.blocks)


def meet(p: Partitioning, q: Partitioning) -> Partitioning:
    """Reference coarsest common refinement: blockwise intersections."""
    return Partitioning.of(
        a & b for a in p.blocks for b in q.blocks if a & b
    )


def cag_of(p: Partitioning) -> CAG:
    """A CAG whose components are the blocks of a conflict-free ``p``."""
    cag = CAG()
    for node in p.nodes:
        cag.add_node(node)
    for block in p.blocks:
        first, *rest = sorted(block)
        for node in rest:
            add_edge(cag, first, node, 1.0)
    return cag


def joined(*partitionings: Partitioning) -> Optional[Partitioning]:
    """The partitionings' union through one :class:`Components`, or None
    when a join refuses a conflict."""
    components = Components()
    for p in partitionings:
        if not components.join(cag_of(p)):
            return None
    groups = {}
    for node in components.parent:
        groups.setdefault(components.find(node), set()).add(node)
    return Partitioning.of(groups.values())


@st.composite
def random_partitioning(draw):
    """Random partitioning of NODES via random block tags."""
    tags = [draw(st.integers(min_value=0, max_value=4)) for _ in NODES]
    blocks = {}
    for node, tag in zip(NODES, tags):
        blocks.setdefault(tag, set()).add(node)
    return Partitioning.of(blocks.values())


class TestBasics:
    def test_of_normalizes_order(self):
        p1 = parts([("a", 0), ("b", 0)], [("a", 1)])
        p2 = parts([("a", 1)], [("b", 0), ("a", 0)])
        assert p1 == p2

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            Partitioning(blocks=(
                frozenset({("a", 0)}), frozenset({("a", 0), ("b", 0)}),
            ))

    def test_from_cag(self):
        cag = CAG()
        cag.add_array("a", 2)
        cag.add_array("b", 2)
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        p = Partitioning.from_cag(cag)
        assert aligned(p, ("a", 0), ("b", 0))
        assert not aligned(p, ("a", 1), ("b", 1))

    def test_has_conflict(self):
        assert parts([("a", 0), ("a", 1)], [("b", 0)], [("b", 1)],
                     [("c", 0)]).has_conflict()
        assert not parts([("a", 0), ("b", 0)], [("a", 1), ("b", 1)],
                         [("c", 0)]).has_conflict()


class TestRefinement:
    def test_bottom_refines_everything(self):
        bottom = parts(*([n] for n in NODES))
        p = parts([("a", 0), ("b", 0)], [("a", 1), ("b", 1)], [("c", 0)])
        assert bottom.refines(p)
        assert not p.refines(bottom)

    def test_refines_is_reflexive(self):
        p = parts([("a", 0), ("b", 0)], [("a", 1), ("b", 1)], [("c", 0)])
        assert p.refines(p)

    def test_different_node_sets_not_comparable(self):
        p = parts(*([n] for n in NODES[:3]))
        q = parts(*([n] for n in NODES))
        assert not p.refines(q)

    def test_restricted_projection(self):
        p = parts([("a", 0), ("b", 0), ("c", 0)], [("a", 1), ("b", 1)])
        r = p.restricted(["a", "c"])
        assert r.nodes == frozenset({("a", 0), ("a", 1), ("c", 0)})
        assert aligned(r, ("a", 0), ("c", 0))

    def test_extended_adds_singletons(self):
        p = parts([("a", 0), ("b", 0)])
        e = p.extended(NODES)
        assert e.nodes == frozenset(NODES)
        assert frozenset({("c", 0)}) in e.blocks


class TestJoin:
    def test_join_example(self):
        p = parts([("a", 0), ("b", 0)], [("a", 1)], [("b", 1)], [("c", 0)])
        q = parts([("b", 0), ("c", 0)], [("a", 0)], [("a", 1)], [("b", 1)])
        assert aligned(joined(p, q), ("a", 0), ("c", 0))

    def test_join_can_conflict(self):
        p = parts([("a", 0), ("b", 0)], [("a", 1)], [("b", 1)], [("c", 0)])
        q = parts([("b", 0), ("a", 1)], [("a", 0)], [("b", 1)], [("c", 0)])
        assert joined(p, q) is None


@settings(max_examples=80, deadline=None)
@given(p=random_partitioning(), q=random_partitioning())
def test_meet_is_lower_bound(p, q):
    assert meet(p, q).refines(p)
    assert meet(p, q).refines(q)


@settings(max_examples=80, deadline=None)
@given(p=random_partitioning(), q=random_partitioning())
def test_join_is_upper_bound(p, q):
    assume(not p.has_conflict() and not q.has_conflict())
    join = joined(p, q)
    union = CAG.merge(cag_of(p), cag_of(q)).components()
    if join is None:  # the union puts two dimensions of one array together
        assert any(len({array for array, _ in c}) < len(c) for c in union)
        return
    assert join == Partitioning.of(union)
    assert p.refines(join)
    assert q.refines(join)


@settings(max_examples=80, deadline=None)
@given(p=random_partitioning(), q=random_partitioning())
def test_join_commutes(p, q):
    assume(not p.has_conflict() and not q.has_conflict())
    assert joined(p, q) == joined(q, p)


@settings(max_examples=50, deadline=None)
@given(p=random_partitioning(), q=random_partitioning())
def test_refines_iff_meet_equals_self(p, q):
    # X ⊑ Y  <=>  X ⊓ Y = X  (standard lattice law)
    assert p.refines(q) == (meet(p, q) == p)
