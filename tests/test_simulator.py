"""Discrete-event simulator tests, including hypothesis properties over
randomly generated deadlock-free node programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.params import IPSC860
from repro.machine.patterns import (
    append_alltoall,
    append_broadcast,
    append_reduce_broadcast,
    append_reduction,
)
from repro.machine.simulator import Collective, SimulationError, simulate


class TestBasics:
    def test_empty(self):
        result = simulate([[], []], IPSC860)
        assert result.makespan == 0.0

    def test_compute_only(self):
        result = simulate([[("compute", 10.0)], [("compute", 25.0)]],
                          IPSC860)
        assert result.makespan == 25.0
        assert result.proc_times == [10.0, 25.0]

    def test_send_recv_ordering(self):
        p0 = [("compute", 100.0), ("send", 1, 8, False)]
        p1 = [("recv", 0)]
        result = simulate([p0, p1], IPSC860)
        expected = 100.0 + IPSC860.message_time(8, hops=1) \
            + IPSC860.recv_overhead
        assert result.proc_times[1] == pytest.approx(expected)

    def test_sender_not_blocked(self):
        """Asynchronous send: sender resumes after the software overhead,
        not the full transit."""
        p0 = [("send", 1, 1 << 16, False), ("compute", 1.0)]
        p1 = [("recv", 0)]
        result = simulate([p0, p1], IPSC860)
        assert result.proc_times[0] == pytest.approx(
            IPSC860.send_overhead(1 << 16) + 1.0
        )

    def test_fifo_channels(self):
        p0 = [("send", 1, 8, False), ("compute", 500.0),
              ("send", 1, 8, False)]
        p1 = [("recv", 0), ("recv", 0)]
        result = simulate([p0, p1], IPSC860)
        # second recv completes only after the second (late) send
        assert result.proc_times[1] > 500.0

    def test_stats(self):
        p0 = [("send", 1, 100, False), ("compute", 5.0)]
        p1 = [("recv", 0)]
        stats = simulate([p0, p1], IPSC860).stats
        assert stats.messages == 1
        assert stats.bytes_sent == 100
        assert stats.compute_time == 5.0

    def test_deadlock_detected(self):
        with pytest.raises(SimulationError):
            simulate([[("recv", 1)], [("recv", 0)]], IPSC860)

    def test_invalid_destination(self):
        with pytest.raises(SimulationError):
            simulate([[("send", 7, 8, False)]], IPSC860)

    def test_unknown_op(self):
        with pytest.raises(SimulationError):
            simulate([[("warp", 1)]], IPSC860)

    def test_unregistered_collective(self):
        with pytest.raises(SimulationError):
            simulate([[("coll", 0)]], IPSC860)

    def test_determinism(self):
        progs = [
            [("compute", 3.0), ("send", 1, 64, True), ("recv", 1)],
            [("recv", 0), ("compute", 7.0), ("send", 0, 64, False)],
        ]
        a = simulate(progs, IPSC860).makespan
        b = simulate(progs, IPSC860).makespan
        assert a == b


class TestCollectiveOp:
    def test_barrier_semantics(self):
        coll = {7: Collective(participants=(0, 1, 2), duration=10.0)}
        progs = [
            [("compute", 5.0), ("coll", 7)],
            [("compute", 50.0), ("coll", 7)],
            [("coll", 7), ("compute", 1.0)],
        ]
        result = simulate(progs, IPSC860, coll)
        # all leave at max(entry) + duration = 60
        assert result.proc_times[0] == 60.0
        assert result.proc_times[2] == 61.0


class TestPatterns:
    def test_broadcast_reaches_everyone(self):
        progs = [[] for _ in range(8)]
        append_broadcast(progs, 1024)
        result = simulate(progs, IPSC860)
        # 3 tree stages
        assert result.stats.messages == 7
        assert result.makespan > 0

    def test_broadcast_two_procs(self):
        progs = [[], []]
        append_broadcast(progs, 100)
        assert simulate(progs, IPSC860).stats.messages == 1

    def test_reduction_message_count(self):
        progs = [[] for _ in range(8)]
        append_reduction(progs, 8, combine_cost=1.0)
        assert simulate(progs, IPSC860).stats.messages == 7

    def test_reduce_broadcast_roundtrip(self):
        progs = [[] for _ in range(4)]
        append_reduce_broadcast(progs, 8)
        result = simulate(progs, IPSC860)
        assert result.stats.messages == 6  # 3 up + 3 down

    def test_alltoall_messages(self):
        progs = [[] for _ in range(4)]
        append_alltoall(progs, 4096)
        result = simulate(progs, IPSC860)
        assert result.stats.messages == 4 * 3

    def test_alltoall_single_proc_noop(self):
        progs = [[]]
        append_alltoall(progs, 4096)
        assert progs == [[]]

    def test_broadcast_scales_with_stage_count(self):
        t = {}
        for procs in (4, 16):
            progs = [[] for _ in range(procs)]
            append_broadcast(progs, 256)
            t[procs] = simulate(progs, IPSC860).makespan
        assert t[16] == pytest.approx(t[4] * 2.0, rel=0.1)


@st.composite
def pipeline_programs(draw):
    """Random chain-structured programs: proc p receives from p-1,
    computes, sends to p+1 — always deadlock-free."""
    nprocs = draw(st.integers(min_value=1, max_value=6))
    stages = draw(st.integers(min_value=1, max_value=5))
    progs = [[] for _ in range(nprocs)]
    for _ in range(stages):
        for p in range(nprocs):
            if p > 0:
                progs[p].append(("recv", p - 1))
            duration = draw(
                st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False)
            )
            progs[p].append(("compute", duration))
            if p < nprocs - 1:
                nbytes = draw(st.integers(min_value=1, max_value=10000))
                progs[p].append(("send", p + 1, nbytes, False))
    return progs


@settings(max_examples=60, deadline=None)
@given(progs=pipeline_programs())
def test_random_pipelines_terminate(progs):
    result = simulate(progs, IPSC860)
    # makespan at least the largest per-proc pure compute
    per_proc_compute = [
        sum(op[1] for op in ops if op[0] == "compute") for ops in progs
    ]
    assert result.makespan >= max(per_proc_compute) - 1e-9
    # every clock is nonnegative and <= makespan
    assert all(0.0 <= t <= result.makespan + 1e-9
               for t in result.proc_times)


@settings(max_examples=40, deadline=None)
@given(progs=pipeline_programs())
def test_simulation_is_deterministic(progs):
    assert simulate(progs, IPSC860).makespan == \
        simulate(progs, IPSC860).makespan
