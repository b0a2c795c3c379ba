"""Unit tests for the virtual-time kernel: clock, scheduling, determinism."""

import math

import pytest

from repro.errors import DeadlockError, KernelStateError, ProcessFailed
from repro.sim import Channel, RealTimeKernel, VirtualTimeKernel


def test_empty_kernel_runs_and_finishes():
    kernel = VirtualTimeKernel()
    kernel.run()
    assert kernel.now() == 0.0


def test_single_process_advances_clock():
    kernel = VirtualTimeKernel()
    seen = []

    def proc():
        kernel.sleep(1.5)
        seen.append(kernel.now())
        kernel.sleep(2.5)
        seen.append(kernel.now())

    kernel.spawn(proc)
    kernel.run()
    assert seen == [1.5, 4.0]
    assert kernel.now() == 4.0


def test_clock_is_simulated_not_wall_clock():
    import time

    kernel = VirtualTimeKernel()
    kernel.spawn(lambda: kernel.sleep(3600.0))
    t0 = time.monotonic()
    kernel.run()
    assert kernel.now() == 3600.0
    assert time.monotonic() - t0 < 5.0  # an hour simulated in < 5 s real


def test_parallel_sleeps_overlap():
    """Two processes sleeping concurrently finish at max, not sum."""
    kernel = VirtualTimeKernel()
    ends = {}

    def proc(name, dur):
        kernel.sleep(dur)
        ends[name] = kernel.now()

    kernel.spawn(proc, "a", 5.0)
    kernel.spawn(proc, "b", 3.0)
    kernel.run()
    assert ends == {"a": 5.0, "b": 3.0}
    assert kernel.now() == 5.0


def test_sequential_dependency_via_join():
    kernel = VirtualTimeKernel()
    order = []

    def worker():
        kernel.sleep(2.0)
        order.append(("worker", kernel.now()))
        return 42

    def waiter(worker_proc):
        result = worker_proc.join()
        order.append(("waiter", kernel.now(), result))

    wp = kernel.spawn(worker)
    kernel.spawn(waiter, wp)
    kernel.run()
    assert order == [("worker", 2.0), ("waiter", 2.0, 42)]


def test_join_already_finished_process():
    kernel = VirtualTimeKernel()
    results = []

    def quick():
        return "done"

    def late(qp):
        kernel.sleep(10.0)
        results.append(qp.join())

    qp = kernel.spawn(quick)
    kernel.spawn(late, qp)
    kernel.run()
    assert results == ["done"]


def test_process_result_and_name():
    kernel = VirtualTimeKernel()
    proc = kernel.spawn(lambda: 7, name="lucky")
    kernel.run()
    assert proc.result == 7
    assert proc.name == "lucky"
    assert not proc.alive


def test_spawn_from_inside_process():
    kernel = VirtualTimeKernel()
    log = []

    def child(tag):
        kernel.sleep(1.0)
        log.append((tag, kernel.now()))

    def parent():
        kernel.sleep(1.0)
        kids = [kernel.spawn(child, i) for i in range(3)]
        for kid in kids:
            kid.join()
        log.append(("parent", kernel.now()))

    kernel.spawn(parent)
    kernel.run()
    assert ("parent", 2.0) in log
    assert sorted(log[:-1]) == [(0, 2.0), (1, 2.0), (2, 2.0)]


def test_process_failure_propagates():
    kernel = VirtualTimeKernel()

    def boom():
        kernel.sleep(1.0)
        raise ValueError("kapow")

    def innocent():
        kernel.sleep(100.0)

    kernel.spawn(boom, name="boom")
    kernel.spawn(innocent)
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run()
    assert "boom" in str(exc_info.value)
    assert isinstance(exc_info.value.original, ValueError)


def test_failure_aborts_blocked_processes_cleanly():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, name="never-fed")

    def starving():
        ch.get()  # blocks forever

    def failing():
        kernel.sleep(1.0)
        raise RuntimeError("fail fast")

    kernel.spawn(starving)
    kernel.spawn(failing)
    with pytest.raises(ProcessFailed):
        kernel.run()
    # all threads must have unwound (no leak)
    for proc in kernel.processes:
        assert not proc.alive


def test_deadlock_detection_names_processes():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, name="orphan-queue")

    def starving():
        ch.get()

    kernel.spawn(starving, name="starving-stage")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    message = str(exc_info.value)
    assert "starving-stage" in message
    assert "orphan-queue" in message


def test_negative_sleep_rejected():
    kernel = VirtualTimeKernel()

    def proc():
        kernel.sleep(-1.0)

    kernel.spawn(proc)
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run()
    assert isinstance(exc_info.value.original, ValueError)


@pytest.mark.parametrize("make_kernel", [
    VirtualTimeKernel, lambda: RealTimeKernel(time_scale=0.0)],
    ids=["virtual", "realtime"])
@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_non_finite_sleep_rejected(make_kernel, duration):
    # a NaN key would silently corrupt the event heap's order and the clock
    kernel = make_kernel()
    seen = []

    def proc():
        try:
            kernel.sleep(duration)
        finally:
            seen.append(kernel.now())

    kernel.spawn(proc)
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run()
    assert isinstance(exc_info.value.original, ValueError)
    assert math.isfinite(seen[0])


def test_blocking_primitive_outside_process_rejected():
    kernel = VirtualTimeKernel()
    with pytest.raises(KernelStateError):
        kernel.sleep(1.0)


def test_run_twice_rejected():
    kernel = VirtualTimeKernel()
    kernel.run()
    with pytest.raises(KernelStateError):
        kernel.run()


def test_spawn_after_finish_rejected():
    kernel = VirtualTimeKernel()
    kernel.run()
    with pytest.raises(KernelStateError):
        kernel.spawn(lambda: None)


def test_zero_sleep_yields_but_keeps_time():
    kernel = VirtualTimeKernel()
    order = []

    def proc(tag):
        for _ in range(3):
            order.append((tag, kernel.now()))
            kernel.sleep(0.0)

    kernel.spawn(proc, "a")
    kernel.spawn(proc, "b")
    kernel.run()
    assert kernel.now() == 0.0
    assert len(order) == 6
    # zero-sleeps interleave the two processes
    tags = [t for t, _ in order]
    assert tags != ["a", "a", "a", "b", "b", "b"]


def test_determinism_identical_timelines():
    def build_and_run():
        kernel = VirtualTimeKernel()
        trace = []
        ch = Channel(kernel, capacity=2, name="ch")

        def producer(tag, delay):
            for i in range(5):
                kernel.sleep(delay)
                ch.put((tag, i))

        def consumer():
            for _ in range(10):
                item = ch.get()
                trace.append((kernel.now(), item))

        kernel.spawn(producer, "x", 0.3)
        kernel.spawn(producer, "y", 0.7)
        kernel.spawn(consumer)
        kernel.run()
        return trace

    assert build_and_run() == build_and_run()


def test_many_processes_scale():
    kernel = VirtualTimeKernel()
    done = []

    def proc(i):
        kernel.sleep(float(i % 7))
        done.append(i)

    for i in range(200):
        kernel.spawn(proc, i)
    kernel.run()
    assert sorted(done) == list(range(200))
    assert kernel.now() == 6.0
