"""Training-set database tests."""

import random

import numpy as np
import pytest

from repro.machine.params import IPSC860, MACHINES, PARAGON
from repro.perf.training import PATTERNS, cached_training_database


@pytest.fixture(scope="module")
def db():
    return cached_training_database(IPSC860)


class TestGeneration:
    def test_over_one_hundred_sets(self, db):
        """Paper Section 3: 'over 100 training sets'."""
        assert len(db) > 100

    def test_all_patterns_present(self, db):
        patterns = {k.pattern for k in db.sets}
        assert patterns == set(PATTERNS)

    def test_stride_and_latency_classes(self, db):
        strides = {k.stride for k in db.sets}
        latencies = {k.latency for k in db.sets}
        assert strides == {"unit", "nonunit"}
        assert latencies == {"high", "low"}

    def test_op_costs_by_dtype(self, db):
        costs = db.op_costs
        assert costs[("add", "real")] < costs[("add", "double")]
        assert costs[("div", "double")] > costs[("mul", "double")]

    def test_cached_identity(self):
        assert cached_training_database(IPSC860) is \
            cached_training_database(IPSC860)

    def test_different_machines_different_data(self):
        slow = cached_training_database(IPSC860)
        fast = cached_training_database(PARAGON)
        assert fast.predict("shift", 4, 4096) < slow.predict(
            "shift", 4, 4096
        )


class TestPrediction:
    def test_interpolation_exact_at_samples(self, db):
        ts = db.lookup("shift", 8, "unit", "high")
        for nbytes, measured in ts.samples:
            assert ts.predict(nbytes) == pytest.approx(measured)

    def test_monotone_in_bytes(self, db):
        ts = db.lookup("transpose", 16, "nonunit", "high")
        values = [ts.predict(b) for b in (64, 1024, 16384, 262144, 1 << 20)]
        assert values == sorted(values)

    def test_extrapolation_beyond_samples(self, db):
        ts = db.lookup("shift", 8, "unit", "high")
        biggest = ts.samples[-1][0]
        assert ts.predict(biggest * 4) > ts.predict(biggest)

    def test_single_proc_is_free(self, db):
        assert db.predict("broadcast", 1, 4096) == 0.0

    def test_nearest_proc_fallback(self, db):
        # 12 processors were never measured; nearest measured count is
        # used (the tool is parameterized for arbitrary P).
        assert db.predict("shift", 12, 4096) > 0.0

    def test_unknown_pattern_raises(self, db):
        with pytest.raises(KeyError):
            db.predict("teleport", 8, 4096)

    def test_nonunit_stride_costs_more(self, db):
        unit = db.predict("shift", 8, 16384, stride="unit")
        nonunit = db.predict("shift", 8, 16384, stride="nonunit")
        assert nonunit > unit

    def test_low_latency_below_high(self, db):
        low = db.predict("sendrecv", 8, 8, latency="low")
        high = db.predict("sendrecv", 8, 8, latency="high")
        assert low <= high

    def test_buffered_transpose_vs_training_measures(self, db):
        """Training sets come from event-level microbenchmarks, so they
        reflect chunk serialization."""
        t4 = db.predict("transpose", 4, 65536, stride="nonunit")
        t32 = db.predict("transpose", 32, 65536, stride="nonunit")
        # more partners, same local bytes: per-partner latency grows the
        # total even though the data volume is unchanged
        assert t32 > t4


def interp_oracle(ts, nbytes):
    """``TrainingSet.predict`` as it was written over ``np.interp``: the
    reference the direct two-point formula is held to, bit for bit."""
    nbytes = max(nbytes, 0)
    xs = [s[0] for s in ts.samples]
    ys = [s[1] for s in ts.samples]
    if nbytes >= xs[-1]:
        return max(ys[-1] + ts.beta * (nbytes - xs[-1]), 0.0)
    if nbytes <= xs[0]:
        return max(ys[0], 0.0)
    return float(np.interp(nbytes, xs, ys))


class TestInterpOracle:
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_predict_equals_np_interp_exactly(self, machine):
        sets = cached_training_database(MACHINES[machine]).sets
        rng = random.Random(f"interp-oracle:{machine}")
        probed = 0
        for key in sorted(sets, key=repr):
            ts = sets[key]
            knots = [x for x, _ in ts.samples]
            sizes = {0, knots[-1] * 2, knots[-1] * 7 + 3}
            for x in knots:
                sizes.update((x - 1, x, x + 1))
            sizes.update(rng.randrange(0, knots[-1] * 2) for _ in range(40))
            for nbytes in sorted(sizes):
                got = ts.predict(nbytes)
                assert type(got) is float, (key, nbytes)
                assert got == interp_oracle(ts, nbytes), (key, nbytes)
                probed += 1
        assert probed > 50 * len(sets)
