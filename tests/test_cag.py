"""Component affinity graph tests."""

import pytest

from repro.alignment.cag import CAG

from .helpers import add_edge


def edge(a, ad, b, bd):
    return ((a, ad), (b, bd))


class TestConstruction:
    def test_add_array_nodes(self):
        cag = CAG()
        cag.add_array("a", 2)
        assert cag.nodes == {("a", 0), ("a", 1)}

    def test_preference_creates_edge(self):
        cag = CAG()
        cag.add_preference(("b", 0), ("a", 0), 100.0)
        assert cag.num_edges == 1
        assert cag.total_weight() == 100.0

    def test_same_array_preference_rejected(self):
        cag = CAG()
        with pytest.raises(ValueError):
            cag.add_preference(("a", 0), ("a", 1), 1.0)

    def test_caching_same_direction_no_change(self):
        """Paper 3.1: a repeated preference with the same direction is
        served from the cache — no weight increase."""
        cag = CAG()
        cag.add_preference(("b", 0), ("a", 0), 100.0)
        cag.add_preference(("b", 0), ("a", 0), 100.0)
        assert cag.total_weight() == 100.0

    def test_caching_opposite_direction_adds_and_reverses(self):
        cag = CAG()
        cag.add_preference(("b", 0), ("a", 0), 100.0)
        cag.add_preference(("a", 0), ("b", 0), 40.0)
        assert cag.total_weight() == 140.0
        key = (("a", 0), ("b", 0))
        assert cag.directions[key] == (("a", 0), ("b", 0))

    def test_third_flip_accumulates_again(self):
        cag = CAG()
        cag.add_preference(("b", 0), ("a", 0), 10.0)
        cag.add_preference(("a", 0), ("b", 0), 10.0)
        cag.add_preference(("b", 0), ("a", 0), 10.0)
        assert cag.total_weight() == 30.0

    def test_undirected_drops_directions(self):
        cag = CAG()
        cag.add_preference(("b", 0), ("a", 0), 5.0)
        und = cag.undirected()
        assert und.directions == {}
        assert und.total_weight() == 5.0


class TestComponentsAndConflicts:
    def test_isolated_nodes_singleton_components(self):
        cag = CAG()
        cag.add_array("a", 2)
        comps = cag.components()
        assert len(comps) == 2

    def test_connected_component(self):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        add_edge(cag, ("b", 0), ("c", 0), 1.0)
        comps = cag.components()
        assert frozenset({("a", 0), ("b", 0), ("c", 0)}) in comps

    def test_no_conflict(self):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        add_edge(cag, ("a", 1), ("b", 1), 1.0)
        assert not cag.has_conflict()

    def test_direct_conflict(self):
        """A path between two dimensions of one array is a conflict."""
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        add_edge(cag, ("b", 0), ("a", 1), 1.0)
        assert cag.has_conflict()
        assert any({("a", 0), ("a", 1)} <= component
                   for component in cag.components())

    def test_transitive_conflict(self):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        add_edge(cag, ("b", 0), ("c", 1), 1.0)
        add_edge(cag, ("c", 1), ("a", 1), 1.0)
        assert cag.has_conflict()

    def test_diagonal_alignment_is_conflict(self):
        """Paper: aligning a 1-D array with both dimensions of a 2-D array
        (a diagonal) is disallowed, i.e. reported as a conflict."""
        cag = CAG()
        add_edge(cag, ("v", 0), ("a", 0), 1.0)
        add_edge(cag, ("v", 0), ("a", 1), 1.0)
        assert cag.has_conflict()


class TestMergeAndRestrict:
    def test_merge_accumulates_shared_edges(self):
        c1 = CAG()
        add_edge(c1, ("a", 0), ("b", 0), 10.0)
        c2 = CAG()
        add_edge(c2, ("a", 0), ("b", 0), 5.0)
        add_edge(c2, ("a", 1), ("b", 1), 7.0)
        merged = CAG.merge(c1, c2)
        assert merged.num_edges == 2
        assert merged.total_weight() == 22.0

    def test_merge_does_not_mutate(self):
        c1 = CAG()
        add_edge(c1, ("a", 0), ("b", 0), 10.0)
        CAG.merge(c1, c1)
        assert c1.total_weight() == 10.0

    def test_scaled(self):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 10.0)
        assert cag.scaled(3.0).total_weight() == 30.0

    def test_restricted(self):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        add_edge(cag, ("b", 0), ("c", 0), 1.0)
        sub = cag.restricted(["a", "b"])
        assert sub.num_edges == 1
        assert all(n[0] in ("a", "b") for n in sub.nodes)

    def test_drop_edges(self):
        cag = CAG()
        add_edge(cag, ("a", 0), ("b", 0), 1.0)
        add_edge(cag, ("a", 1), ("b", 1), 2.0)
        keys = [k for k in cag.weights]
        smaller = cag.drop_edges([keys[0]])
        assert smaller.num_edges == 1
        assert smaller.nodes == cag.nodes

    def test_arrays_listing(self):
        cag = CAG()
        add_edge(cag, ("b", 0), ("a", 0), 1.0)
        assert cag.arrays == ("a", "b")
