"""Property-based tests of the event-level communication patterns."""

from collections import Counter

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
from repro.machine.simulator import simulate


def message_stats(programs):
    sends = Counter()
    recvs = Counter()
    for proc, ops in enumerate(programs):
        for op in ops:
            if op[0] == "send":
                sends[proc] += 1
            elif op[0] == "recv":
                recvs[proc] += 1
    return sends, recvs


@settings(max_examples=40, deadline=None)
@given(nprocs=st.integers(min_value=1, max_value=17),
       nbytes=st.integers(min_value=1, max_value=1 << 16))
def test_broadcast_reaches_everyone_once(nprocs, nbytes):
    programs = [[] for _ in range(nprocs)]
    append_broadcast(programs, nbytes)
    sends, recvs = message_stats(programs)
    # every non-root receives exactly once; total messages = P - 1
    assert sum(sends.values()) == max(nprocs - 1, 0)
    assert recvs[0] == 0
    for proc in range(1, nprocs):
        assert recvs[proc] == 1
    simulate(programs, IPSC860)  # terminates without deadlock


@settings(max_examples=40, deadline=None)
@given(nprocs=st.integers(min_value=1, max_value=17),
       nbytes=st.integers(min_value=1, max_value=4096))
def test_reduction_gathers_everything(nprocs, nbytes):
    programs = [[] for _ in range(nprocs)]
    append_reduction(programs, nbytes, combine_cost=1.0)
    sends, _recvs = message_stats(programs)
    assert sum(sends.values()) == max(nprocs - 1, 0)
    # every non-root sends exactly once
    for proc in range(1, nprocs):
        assert sends[proc] == 1
    simulate(programs, IPSC860)


@settings(max_examples=30, deadline=None)
@given(nprocs=st.integers(min_value=1, max_value=12),
       local=st.integers(min_value=1, max_value=1 << 18))
def test_alltoall_full_exchange(nprocs, local):
    programs = [[] for _ in range(nprocs)]
    append_alltoall(programs, local)
    sends, recvs = message_stats(programs)
    expected = nprocs - 1 if nprocs > 1 else 0
    for proc in range(nprocs):
        assert sends[proc] == expected
        assert recvs[proc] == expected
    result = simulate(programs, IPSC860)
    if nprocs > 1:
        assert result.stats.bytes_sent >= max(local // nprocs, 1) * \
            nprocs * (nprocs - 1) * 0.5


@settings(max_examples=30, deadline=None)
@given(
    nprocs=st.integers(min_value=2, max_value=12),
    group_size=st.integers(min_value=2, max_value=12),
    offset=st.integers(min_value=0, max_value=10),
)
def test_subgroup_collectives_target_only_members(
    nprocs, group_size, offset
):
    group = [
        (offset + i) % nprocs for i in range(min(group_size, nprocs))
    ]
    if len(set(group)) != len(group):
        return  # wrapped into duplicates: not a valid group
    programs = [[] for _ in range(nprocs)]
    append_broadcast(programs, 128, ranks=group)
    members = set(group)
    for proc in range(nprocs):
        if proc not in members:
            assert programs[proc] == []
        for op in programs[proc]:
            if op[0] == "send":
                assert op[1] in members
    simulate(programs, IPSC860)


@settings(max_examples=20, deadline=None)
@given(
    nprocs=st.integers(min_value=4, max_value=12),
    nbytes=st.integers(min_value=1, max_value=4096),
)
def test_disjoint_subgroups_run_concurrently(nprocs, nbytes):
    """Two disjoint-group collectives interleave without deadlock and the
    makespan matches a single group of the larger size."""
    half = nprocs // 2
    g1 = list(range(half))
    g2 = list(range(half, nprocs))
    programs = [[] for _ in range(nprocs)]
    append_alltoall(programs, nbytes, ranks=g1)
    append_alltoall(programs, nbytes, ranks=g2)
    both = simulate(programs, IPSC860).makespan

    solo = [[] for _ in range(nprocs)]
    append_alltoall(solo, nbytes, ranks=list(range(max(len(g1), len(g2)))))
    single = simulate(solo, IPSC860).makespan
    assert both == pytest.approx(single, rel=0.35)


@settings(max_examples=25, deadline=None)
@given(nprocs=st.integers(min_value=1, max_value=10),
       nbytes=st.integers(min_value=1, max_value=1024))
def test_reduce_broadcast_symmetry(nprocs, nbytes):
    programs = [[] for _ in range(nprocs)]
    append_reduce_broadcast(programs, nbytes)
    sends, recvs = message_stats(programs)
    assert sum(sends.values()) == sum(recvs.values())
    assert sum(sends.values()) == 2 * max(nprocs - 1, 0)
    simulate(programs, IPSC860)
