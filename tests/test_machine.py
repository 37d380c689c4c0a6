"""Machine substrate tests: params, network, collectives, node costs."""

import pytest

from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table
from repro.machine.collectives import redistribute_time, transpose_time
from repro.machine.network import (
    hops,
    hypercube_dimension,
    is_power_of_two,
    neighbors,
    point_to_point_time,
)
from repro.machine.node import expr_cost, statement_cost, stmt_dtype
from repro.machine.params import IPSC860, PARAGON


class TestParams:
    def test_short_vs_long_protocol(self):
        short = IPSC860.message_time(50)
        long_ = IPSC860.message_time(200)
        assert long_ > short
        assert short == pytest.approx(
            IPSC860.alpha_short + 50 * IPSC860.beta_per_byte
            + IPSC860.hop_latency
        )

    def test_buffered_costs_more(self):
        plain = IPSC860.message_time(4096)
        buffered = IPSC860.message_time(4096, buffered=True)
        assert buffered == pytest.approx(
            plain + 2 * 4096 * IPSC860.buffer_copy_per_byte
        )

    def test_send_overhead_below_message_time(self):
        assert IPSC860.send_overhead(1024) < IPSC860.message_time(
            1024, hops=3
        )

    def test_dtype_factor(self):
        assert IPSC860.dtype_factor("real") < 1.0
        assert IPSC860.dtype_factor("double") == 1.0

    def test_with_overrides(self):
        fast = IPSC860.with_overrides(alpha_short=1.0)
        assert fast.alpha_short == 1.0
        assert IPSC860.alpha_short == 75.0  # frozen original

    def test_paragon_is_faster(self):
        assert PARAGON.message_time(4096) < IPSC860.message_time(4096)


class TestHypercube:
    def test_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(32)
        assert not is_power_of_two(0) and not is_power_of_two(12)

    def test_dimension(self):
        assert hypercube_dimension(16) == 4
        with pytest.raises(ValueError):
            hypercube_dimension(12)

    def test_hops_is_hamming_distance(self):
        assert hops(0, 0) == 0
        assert hops(0b0101, 0b0110) == 2

    def test_neighbors(self):
        assert sorted(neighbors(0, 8)) == [1, 2, 4]

    def test_point_to_point_self_is_free(self):
        assert point_to_point_time(IPSC860, 3, 3, 4096) == 0.0

    def test_distance_dependence_is_small(self):
        near = point_to_point_time(IPSC860, 0, 1, 4096)
        far = point_to_point_time(IPSC860, 0, 31, 4096)
        assert far > near
        assert (far - near) / near < 0.1  # circuit switched


class TestCollectiveFormulas:
    def test_single_proc_collectives_free(self):
        assert transpose_time(IPSC860, 1, 4096) == 0.0
        assert redistribute_time(IPSC860, 1, 4096) == 0.0

    def test_transpose_data_crosses_once(self):
        # doubling procs with fixed local bytes: more chunks, smaller each
        t4 = transpose_time(IPSC860, 4, 65536)
        t16 = transpose_time(IPSC860, 16, 65536)
        # latency term grows, bandwidth term roughly constant
        assert t16 > 0 and t4 > 0

    def test_redistribute_scales_down_with_procs(self):
        t4 = redistribute_time(IPSC860, 4, 1 << 20)
        t16 = redistribute_time(IPSC860, 16, 1 << 20)
        assert t16 < t4


@pytest.fixture(scope="module")
def stmt_env():
    src = (
        "program t\n"
        "      integer n\n      parameter (n = 8)\n"
        "      double precision a(n, n), b(n, n)\n"
        "      real r(n)\n"
        "      integer i, j\n"
        "      do j = 1, n\n"
        "        do i = 1, n\n"
        "          a(i, j) = b(i, j) * 2.0 + 1.0\n"
        "          a(i, j) = sqrt(b(i, j))\n"
        "          a(i, j) = b(i, j) / 3.0\n"
        "          r(i) = 1.0\n"
        "        enddo\n"
        "      enddo\n"
        "      end\n"
    )
    prog = parse_source(src)
    table = build_symbol_table(prog)
    stmts = list(prog.body[0].body[0].body)
    return stmts, table


class TestNodeCosts:
    def test_mul_add_statement(self, stmt_env):
        stmts, table = stmt_env
        cost = statement_cost(stmts[0], IPSC860, table, dtype="double")
        assert cost > 0

    def test_intrinsic_costs_more_than_mul(self, stmt_env):
        stmts, table = stmt_env
        mul = statement_cost(stmts[0], IPSC860, table)
        sqrt = statement_cost(stmts[1], IPSC860, table)
        assert sqrt > mul - IPSC860.op_add  # sqrt dominates the extra add

    def test_div_costs_more_than_mul(self, stmt_env):
        stmts, table = stmt_env
        mul_expr = stmts[0].expr
        div_expr = stmts[2].expr
        assert expr_cost(div_expr, IPSC860) > expr_cost(mul_expr, IPSC860) \
            - IPSC860.op_add

    def test_real_cheaper_than_double(self, stmt_env):
        stmts, table = stmt_env
        d = statement_cost(stmts[0], IPSC860, table, dtype="double")
        r = statement_cost(stmts[0], IPSC860, table, dtype="real")
        assert r < d

    def test_stmt_dtype(self, stmt_env):
        stmts, table = stmt_env
        assert stmt_dtype(stmts[0], table) == "double"
        assert stmt_dtype(stmts[3], table) == "real"
