"""Tests of the benchmark's own arithmetic, tracing and correctness gate."""

import math

import numpy as np
import pytest

import attnops.vit
from attnops import oracles, registry
from attnops.errors import AttnOpsError

import oracle_gate
import runstats
import spans
import workloads


class TestPercentile:
    def test_p90_of_100_samples_has_ten_beyond(self):
        value, beyond = runstats.percentile(range(1, 101), 90)
        assert (value, beyond) == (90, 10)

    def test_too_few_samples_beyond_is_refused(self):
        with pytest.raises(ValueError, match="99 samples has 9 beyond"):
            runstats.percentile(range(99), 90)

    def test_samples_needed(self):
        assert runstats.samples_needed(90) == 100
        assert runstats.samples_needed(50) == 20
        assert runstats.samples_needed(99) == 1000


class TestGeomean:
    def test_values(self):
        assert runstats.geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert runstats.geomean([3.0]) == pytest.approx(3.0)

    def test_every_cell_weighs_the_same(self):
        # A 30x speed-up of 2 cells out of 34 moves the mean by 30 ** (-2 / 34).
        before = [1.0] * 32 + [100.0, 100.0]
        after = [1.0] * 32 + [100.0 / 30, 100.0 / 30]
        ratio = runstats.geomean(after) / runstats.geomean(before)
        assert ratio == pytest.approx(30 ** (-2 / 34))

    def test_non_positive_is_refused(self):
        with pytest.raises(ValueError):
            runstats.geomean([1.0, 0.0])


class TestDoubling:
    def test_ratio(self):
        medians = {("lin", 8): 1.0, ("lin", 16): 2.0, ("cub", 4): 0.5, ("cub", 8): 4.0}
        assert runstats.doubling_ratios(medians) == {"lin": 2.0, "cub": 8.0}

    def test_sizes_must_double(self):
        with pytest.raises(ValueError, match="not one size and its double"):
            runstats.doubling_ratios({("a", 8): 1.0, ("a", 12): 2.0})

    def test_sweep_sizes_double(self):
        for _, (n, two_n) in workloads.SWEEP:
            assert two_n == 2 * n


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_self_is_span_minus_children(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def leaf():
            clock.now += 3

        traced_leaf = tracer.wrap("leaf", leaf)

        def outer():
            clock.now += 2
            traced_leaf()
            traced_leaf()
            clock.now += 1

        tracer.wrap("outer", outer)()
        snap = tracer.take()
        assert snap.ms("outer") == pytest.approx(9e-6)
        assert snap.self_ms("outer") == pytest.approx(3e-6)
        assert snap.self_ms("leaf") == pytest.approx(6e-6)
        assert snap.calls("leaf") == 2
        assert snap.top_ns == 9
        assert tracer.take().calls("outer") == 0

    def test_failed_span_is_closed_and_counted(self):
        tracer = spans.Tracer(FakeClock())

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()
        snap = tracer.take()
        assert (snap.calls("boom"), snap.failed("boom")) == (1, 1)

    def test_instrumented_restores_attributes(self):
        original = attnops.vit.registry_forward
        with spans.instrumented(spans.Tracer()):
            assert attnops.vit.registry_forward is not original
        assert attnops.vit.registry_forward is original


def _checksums(cells, tally=None):
    return workloads.warm_up(cells, tally or workloads.Tally())


class TestChecksums:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_seed_reproduces_checksums(self, name):
        build = workloads.WORKLOADS[name]
        tally = workloads.Tally()
        first = _checksums(build(3), tally)
        assert tally.failed == 0 and None not in first.values()
        assert _checksums(build(3)) == first
        second = _checksums(build(4))
        assert all(second[cell] != first[cell] for cell in first)

    def test_traced_run_reproduces_checksums(self):
        plain = _checksums(workloads.encoder_short(0))
        tally = workloads.Tally()
        with spans.instrumented(spans.Tracer()):
            traced = workloads.warm_up(workloads.encoder_short(0), tally, expected=plain)
        assert traced == plain and tally.failed == 0


class TestGate:
    def test_every_mechanism_passes_its_oracle(self):
        for label, mech in workloads.MECHANISMS.items():
            err, reason = oracle_gate.check(mech, seed=5)
            assert reason is None, (label, reason)
            assert err <= oracle_gate.TOLERANCE

    def test_planted_wrong_mixer_fails(self):
        cells = workloads.encoder_long(0)
        tally = workloads.Tally()
        report = oracle_gate.run_gate(cells, tally)
        assert report.control_failed
        assert (tally.attempted, tally.failed) == (1, 0)

    def test_residual_needs_lam_on_both_sides(self):
        mech = workloads.MECHANISMS["tensor_residual"]
        inputs = mech.inputs(oracle_gate.SMALL_N, oracle_gate.SMALL_D, 0)
        default_oracle = oracles.naive_reference(inputs, "tensor_residual")
        assert oracle_gate.relative_error(mech(inputs), default_oracle) > 1e-3

    def test_row_normalization_degenerates_on_signed_inputs(self):
        inputs = workloads.MECHANISMS["tensor_linear"].inputs(512, 32, 0)
        with pytest.raises(AttnOpsError):
            registry.forward("tensor_row", inputs)

    def test_failures_are_counted(self):
        bad = workloads.Cell("bad", 1, 0, workloads.MECHANISMS["softmax"],
                             lambda: np.array([[math.nan]]))
        tally = workloads.Tally()
        workloads.warm_up([bad], tally)
        assert (tally.attempted, tally.failed) == (1, 1)
        assert tally.reasons == {"bad: non-finite output": 1}
