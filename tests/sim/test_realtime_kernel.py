"""Unit tests for the real-time kernel (time_scale=0 for speed)."""

import pytest

from repro.errors import KernelStateError, ProcessFailed
from repro.sim import Channel, RealTimeKernel, Resource


def test_basic_run_and_result():
    kernel = RealTimeKernel(time_scale=0.0)
    proc = kernel.spawn(lambda: "done")
    kernel.run(timeout=10.0)
    assert proc.result == "done"


def test_sleep_and_clock_monotonic():
    kernel = RealTimeKernel(time_scale=0.0)
    stamps = []

    def proc():
        stamps.append(kernel.now())
        kernel.sleep(100.0)  # scaled to zero real time
        stamps.append(kernel.now())

    kernel.spawn(proc)
    kernel.run(timeout=10.0)
    assert stamps[1] >= stamps[0]


def test_time_scale_sleeps_real_time():
    import time

    kernel = RealTimeKernel(time_scale=0.01)
    kernel.spawn(lambda: kernel.sleep(5.0))  # 0.05 s real
    t0 = time.monotonic()
    kernel.run(timeout=10.0)
    assert time.monotonic() - t0 >= 0.04


def test_channel_across_real_threads():
    kernel = RealTimeKernel(time_scale=0.0)
    ch = Channel(kernel, capacity=2)
    got = []

    def producer():
        for i in range(20):
            ch.put(i)

    def consumer():
        for _ in range(20):
            got.append(ch.get())

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run(timeout=30.0)
    assert got == list(range(20))


def test_resource_mutual_exclusion():
    kernel = RealTimeKernel(time_scale=0.0)
    res = Resource(kernel, capacity=1)
    inside = []
    max_inside = []

    def proc():
        for _ in range(50):
            with res.request():
                inside.append(1)
                max_inside.append(len(inside))
                inside.pop()

    for _ in range(4):
        kernel.spawn(proc)
    kernel.run(timeout=30.0)
    assert max(max_inside) == 1


def test_failure_propagates_and_aborts():
    kernel = RealTimeKernel(time_scale=0.0)
    ch = Channel(kernel, name="never")

    def starving():
        ch.get()

    def failing():
        raise ValueError("nope")

    kernel.spawn(starving)
    kernel.spawn(failing, name="failing")
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run(timeout=10.0)
    assert "failing" in str(exc_info.value)


def test_watchdog_fires_on_hung_program():
    kernel = RealTimeKernel(time_scale=0.0)
    ch = Channel(kernel, name="hung-queue")
    kernel.spawn(lambda: ch.get(), name="hung")
    with pytest.raises(KernelStateError) as exc_info:
        kernel.run(timeout=0.2)
    assert "hung" in str(exc_info.value)


def test_watchdog_report_describes_each_park():
    kernel = RealTimeKernel(time_scale=0.0)
    ch = Channel(kernel, capacity=2, name="starved")
    ch.owner = "pass1.recv"
    kernel.spawn(ch.get, name="getter")
    with pytest.raises(KernelStateError) as exc_info:
        kernel.run(timeout=0.2)
    assert str(exc_info.value) == (
        "real-time kernel watchdog expired; live processes:\n"
        "  - getter: waiting on get <- starved "
        "(occupancy 0/2, pipeline pass1.recv)")


def test_watchdog_report_is_taken_before_the_abort():
    """The abort unwinds the getter, which wakes its joiner; the report
    still says what the joiner was parked on."""
    kernel = RealTimeKernel(time_scale=0.0)
    ch = Channel(kernel, name="starved")
    getter = kernel.spawn(ch.get, name="getter")
    kernel.spawn(getter.join, name="joiner")
    with pytest.raises(KernelStateError) as exc_info:
        kernel.run(timeout=0.2)
    assert str(exc_info.value) == (
        "real-time kernel watchdog expired; live processes:\n"
        "  - getter: waiting on get <- starved (occupancy 0/inf)\n"
        "  - joiner: waiting on join(getter)")


def test_join_across_threads():
    kernel = RealTimeKernel(time_scale=0.0)
    results = []

    def worker():
        kernel.sleep(1.0)
        return 5

    def waiter(wp):
        results.append(wp.join())

    wp = kernel.spawn(worker)
    kernel.spawn(waiter, wp)
    kernel.run(timeout=10.0)
    assert results == [5]


def test_negative_time_scale_rejected():
    with pytest.raises(ValueError):
        RealTimeKernel(time_scale=-1.0)


def test_decision_sites_read_tracer_and_metrics_plainly():
    """Only the virtual-time kernel records a trace, but every kernel
    carries ``tracer`` (like ``metrics``): the recovery manager, the
    scheduler and the tune controller read both as plain attributes."""
    from repro.cluster import Cluster
    from repro.recover import RecoverPolicy, RecoveryManager

    kernel = RealTimeKernel(time_scale=0.0)
    assert kernel.tracer is None and kernel.metrics is None
    manager = RecoveryManager(Cluster(n_nodes=2, kernel=kernel),
                              RecoverPolicy())
    manager.decide("resume", 0, "from block 3")
    assert [d["kind"] for d in manager.decisions.entries] == ["resume"]
