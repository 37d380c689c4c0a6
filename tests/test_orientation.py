"""Orientation selection tests."""

import pytest

from repro.alignment.lattice import Partitioning
from repro.alignment.orientation import OrientationError, orient
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table


@pytest.fixture(scope="module")
def symbols():
    src = (
        "program t\n"
        "      integer n\n      parameter (n = 8)\n"
        "      real a(n, n), b(n, n), big(n, n)\n"
        "      real v(n)\n"
        "      integer i, j\n"
        "      end\n"
    )
    return build_symbol_table(parse_source(src))


def parts(*blocks):
    return Partitioning.of([set(b) for b in blocks])


class TestOrient:
    def test_canonical_partitioning_gets_identity(self, symbols):
        p = parts(
            [("a", 0), ("b", 0)],
            [("a", 1), ("b", 1)],
        )
        result = orient(p, 2, symbols)
        assert result["a"].axis_map == (0, 1)
        assert result["b"].axis_map == (0, 1)

    def test_transposed_partitioning(self, symbols):
        p = parts(
            [("a", 0), ("b", 1)],
            [("a", 1), ("b", 0)],
        )
        result = orient(p, 2, symbols)
        # One of the two is transposed relative to the other.
        assert result["a"].axis_map != result["b"].axis_map
        assert set(result["a"].axis_map) == {0, 1}

    def test_votes_weighted_by_array_size(self, symbols):
        # 'big' dominates: its dims keep natural positions even if the
        # smaller array ends up transposed.
        p = parts(
            [("big", 0), ("v", 0)],
            [("big", 1)],
        )
        result = orient(p, 2, symbols)
        assert result["big"].axis_map == (0, 1)
        assert result["v"].axis_map == (0,)

    def test_one_dim_array_embedding(self, symbols):
        # v aligned with a's second dimension -> v maps to template dim 1.
        p = parts(
            [("a", 0)],
            [("a", 1), ("v", 0)],
        )
        result = orient(p, 2, symbols)
        assert result["v"].axis_map == (result["a"].axis_map[1],)

    def test_blocks_sharing_array_get_distinct_dims(self, symbols):
        p = parts([("a", 0)], [("a", 1)])
        result = orient(p, 2, symbols)
        assert len(set(result["a"].axis_map)) == 2

    def test_conflicting_partitioning_raises(self, symbols):
        p = parts([("a", 0), ("a", 1)])
        with pytest.raises(OrientationError):
            orient(p, 2, symbols)

    def test_more_blocks_than_dims_ok_without_sharing(self, symbols):
        # three singleton blocks of distinct arrays fit in 2 template dims
        p = parts([("a", 0)], [("b", 0)], [("v", 0)])
        result = orient(p, 2, symbols)
        assert set(result) == {"a", "b", "v"}
