"""Tests for the execution tracer (timelines, busy accounting, Gantt)."""

import pytest

from repro.sim import Channel, Tracer, VirtualTimeKernel
from repro.sim.trace import FINISH, PARK, RESUME, SPAWN


def traced_kernel():
    tracer = Tracer()
    return VirtualTimeKernel(tracer=tracer), tracer


def test_events_recorded_in_order():
    kernel, tracer = traced_kernel()

    def proc():
        kernel.sleep(1.0)

    kernel.spawn(proc, name="p")
    kernel.run()
    kinds = [ev.kind for ev in tracer.events if ev.process == "p"]
    assert kinds == [SPAWN, RESUME, PARK, RESUME, FINISH]
    park = next(ev for ev in tracer.events if ev.kind == PARK)
    assert "sleep" in park.detail


def test_intervals_reconstruct_sleep():
    kernel, tracer = traced_kernel()

    def proc():
        kernel.sleep(2.0)

    kernel.spawn(proc, name="p")
    kernel.run()
    work = [iv for iv in tracer.intervals("p") if iv.state == "work"]
    assert len(work) == 1
    assert "sleep" in work[0].detail
    assert work[0].duration == pytest.approx(2.0)


def test_busy_time_of_worker_vs_waiter():
    kernel, tracer = traced_kernel()
    ch = Channel(kernel, name="ch")

    def worker():
        kernel.sleep(3.0)   # parked: not busy
        ch.put("x")

    def waiter():
        ch.get()            # parked the whole 3 seconds

    kernel.spawn(worker, name="worker")
    kernel.spawn(waiter, name="waiter")
    kernel.run()
    # the worker's sleep is timed work; the waiter idles on the channel
    assert tracer.busy_time("worker") == pytest.approx(3.0)
    assert tracer.busy_time("waiter") == pytest.approx(0.0)
    assert tracer.span() == (0.0, 3.0)


def test_process_names_in_first_appearance_order():
    kernel, tracer = traced_kernel()
    for name in ("alpha", "beta", "gamma"):
        kernel.spawn(lambda: kernel.sleep(0.5), name=name)
    kernel.run()
    assert tracer.process_names() == ["alpha", "beta", "gamma"]


def test_gantt_renders_rows_for_all_processes():
    kernel, tracer = traced_kernel()

    def proc(d):
        kernel.sleep(d)

    kernel.spawn(proc, 1.0, name="short")
    kernel.spawn(proc, 4.0, name="long")
    kernel.run()
    chart = tracer.gantt(width=40)
    lines = chart.splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert "short" in lines[1] and "long" in lines[2]
    # sleeps are timed work; the long sleeper works across the whole
    # chart, the short one finishes a quarter of the way in
    assert lines[2].count("#") > lines[1].count("#")
    assert lines[1].count(" ") > lines[2].count(" ")


def test_gantt_width_validation_and_empty():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.gantt(width=4)
    assert "zero-duration" in tracer.gantt()


def test_tracing_does_not_change_timing():
    def run(tracer):
        kernel = VirtualTimeKernel(tracer=tracer)
        ch = Channel(kernel, capacity=2)

        def producer():
            for i in range(10):
                kernel.sleep(0.5)
                ch.put(i)

        def consumer():
            for _ in range(10):
                ch.get()
                kernel.sleep(0.7)

        kernel.spawn(producer)
        kernel.spawn(consumer)
        kernel.run()
        return kernel.now()

    assert run(None) == run(Tracer())
