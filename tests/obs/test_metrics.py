"""Tests for the metrics registry (counters, gauges, histograms).

The interesting semantics are time-weighting under the virtual-time
kernel: a gauge's average is the integral of its value over *kernel*
time, so the numbers are exact consequences of the cost model.
"""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim import VirtualTimeKernel


def manual_clock(times):
    """A clock that pops successive timestamps (last one sticks)."""
    it = iter(times)
    last = [0.0]

    def clock():
        try:
            last[0] = next(it)
        except StopIteration:
            pass
        return last[0]

    return clock


# -- counters ---------------------------------------------------------------

def test_counter_accumulates_and_rejects_decrease():
    c = Counter("c", lambda: 0.0)
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


@pytest.mark.parametrize("amount", [float("nan"), -1.0, -1e-300])
def test_counter_refuses_nan_and_negative_increments(amount):
    c = Counter("c", lambda: 0.0, record_samples=True)
    with pytest.raises(ValueError, match="'c' increment must be >= 0"):
        c.inc(amount)
    assert c.value == 0.0 and c.samples == []


def test_counter_accepts_a_zero_increment():
    c = Counter("c", lambda: 1.0, record_samples=True)
    c.inc(0.0)
    assert c.value == 0.0 and c.samples == [(1.0, 0.0)]


# -- gauges (time-weighted) -------------------------------------------------

def test_gauge_time_average_is_integral_over_kernel_time():
    kernel = VirtualTimeKernel()
    registry = kernel.enable_metrics()
    g = registry.gauge("occupancy")

    def proc():
        g.set(2)            # t=0: level 2
        kernel.sleep(1.0)
        g.set(4)            # t=1: level 4
        kernel.sleep(3.0)
        g.set(0)            # t=4: level 0

    kernel.spawn(proc)
    kernel.run()
    # integral = 2*1 + 4*3 = 14 over 4 seconds
    assert g.time_average() == pytest.approx(14 / 4)
    assert g.max == 4 and g.value == 0


def test_gauge_one_long_visit_weighs_like_many_short_ones():
    def run(schedule):
        kernel = VirtualTimeKernel()
        g = kernel.enable_metrics().gauge("g")

        def proc():
            for level, hold in schedule:
                g.set(level)
                kernel.sleep(hold)
            g.set(0)

        kernel.spawn(proc)
        kernel.run()
        return g.time_average(now=4.0)

    # one second at level 4 == four one-second visits to level 1
    assert run([(4, 1.0), (0, 3.0)]) == pytest.approx(
        run([(1, 1.0), (1.0001, 0.0), (1, 1.0), (1.0001, 0.0),
             (1, 1.0), (1.0001, 0.0), (1, 1.0)]), rel=1e-3)


def test_gauge_set_to_same_value_records_nothing():
    g = Gauge("g", manual_clock([0.0, 1.0]), record_samples=True)
    g.set(0.0)      # no-op: already 0
    g.set(3.0)
    g.set(3.0)      # no-op
    assert g.samples == [(1.0, 3.0)]


def test_gauge_level_bounds_accumulate_time_at_level():
    kernel = VirtualTimeKernel()
    g = kernel.enable_metrics().gauge("depth", level_bounds=(0, 1, 2, 4))

    def proc():
        g.set(1)
        kernel.sleep(2.0)   # 2 s at depth 1
        g.set(3)
        kernel.sleep(1.0)   # 1 s at depth 3 (bucket <=4)
        g.set(0)

    kernel.spawn(proc)
    kernel.run()
    levels = g.snapshot()["levels"]
    assert levels["weights"][1] == pytest.approx(2.0)   # <=1 bucket
    assert levels["weights"][3] == pytest.approx(1.0)   # <=4 bucket


def test_gauge_add_is_relative():
    g = Gauge("g", manual_clock([0.0, 1.0, 2.0]))
    g.add(2)
    g.add(-1)
    assert g.value == 1
    assert g.min == 0.0 and g.max == 2


# -- histograms -------------------------------------------------------------

def test_histogram_buckets_and_weighted_mean():
    h = Histogram("h", lambda: 0.0, bounds=(1.0, 2.0))
    h.observe(0.5)              # bucket 0
    h.observe(1.5, weight=3.0)  # bucket 1, time-weighted
    h.observe(9.0)              # overflow
    assert h.weights == [1.0, 3.0, 1.0]
    assert h.count == 3
    assert h.mean() == pytest.approx((0.5 + 1.5 * 3 + 9.0) / 5.0)
    assert (h.min, h.max) == (0.5, 9.0)


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        Histogram("h", lambda: 0.0, bounds=(2.0, 1.0))
    h = Histogram("h", lambda: 0.0)
    with pytest.raises(ValueError):
        h.observe(1.0, weight=-0.5)


@pytest.mark.parametrize("weight", [float("nan"), -1.0, -1e-300])
def test_histogram_refuses_nan_and_negative_weights(weight):
    h = Histogram("h", lambda: 0.0)
    with pytest.raises(ValueError, match="'h' weight must be >= 0"):
        h.observe(1.0, weight=weight)
    assert h.count == 0 and h.total_weight == 0.0


def test_histogram_accepts_a_zero_weight():
    h = Histogram("h", lambda: 0.0, bounds=(1.0,))
    h.observe(0.5, weight=0.0)
    assert h.count == 1 and h.weights == [0.0, 0.0]
    assert h.mean() == 0.0


def test_empty_histogram_mean_is_zero():
    assert Histogram("h", lambda: 0.0).mean() == 0.0


# -- registry ---------------------------------------------------------------

def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry(lambda: 0.0)
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert len(registry) == 2
    assert registry.names() == ["a", "b"]
    assert registry.get("missing") is None


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry(lambda: 0.0)
    registry.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x")


def test_snapshot_groups_by_kind_and_stamps_kernel_time():
    kernel = VirtualTimeKernel()
    registry = kernel.enable_metrics()

    def proc():
        registry.counter("hits", unit="1").inc(7)
        registry.gauge("depth").set(2)
        kernel.sleep(1.5)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)

    kernel.spawn(proc)
    kernel.run()
    snap = registry.snapshot()
    assert snap["captured_at"] == pytest.approx(1.5)
    assert snap["counters"]["hits"]["value"] == 7
    assert snap["gauges"]["depth"]["time_average"] == pytest.approx(2.0)
    assert snap["histograms"]["lat"]["weights"] == [1.0, 0.0]


def test_enable_metrics_is_idempotent():
    kernel = VirtualTimeKernel()
    assert kernel.metrics is None
    registry = kernel.enable_metrics()
    assert kernel.enable_metrics() is registry
    assert kernel.metrics is registry


def test_virtual_runs_are_metric_deterministic():
    def run():
        kernel = VirtualTimeKernel()
        registry = kernel.enable_metrics()
        g = registry.gauge("q")

        def producer():
            for i in range(5):
                kernel.sleep(0.25)
                g.add(1)

        def consumer():
            for i in range(5):
                kernel.sleep(0.4)
                g.add(-1)

        kernel.spawn(producer)
        kernel.spawn(consumer)
        kernel.run()
        return registry.snapshot()

    assert run() == run()
