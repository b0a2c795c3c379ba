"""The kernel's host clock: ``Process.host_ns``.

Each change of the run token's owner reads ``perf_counter_ns()`` once and
charges the interval to the process that held it.  The intervals never
overlap, so they add up to at most the wall time of ``kernel.run()``;
host work a process does is charged to it; and, like ``handoffs``, the
clock is a plain attribute that no metrics snapshot or trace carries.
"""

import time

from repro.core import FGProgram, Stage
from repro.sim import Channel, Tracer, VirtualTimeKernel


def _busy(seconds):
    """Spin on the host for ``seconds``; returns the ns actually spent."""
    start = time.perf_counter_ns()
    while time.perf_counter_ns() - start < seconds * 1e9:
        pass
    return time.perf_counter_ns() - start


def test_every_process_is_charged_and_the_sum_fits_the_run():
    kernel = VirtualTimeKernel()
    chan = Channel(kernel, capacity=1)
    spent = {}

    def producer():
        for i in range(20):
            chan.put(i)
            kernel.sleep(0.001)
        chan.put(None)

    def consumer():
        spent["consumer"] = 0
        while chan.get() is not None:
            spent["consumer"] += _busy(0.0002)

    def sleeper():
        for _ in range(5):
            kernel.sleep(0.003)

    procs = [kernel.spawn(producer, name="producer"),
             kernel.spawn(consumer, name="consumer"),
             kernel.spawn(sleeper, name="sleeper")]
    start = time.perf_counter_ns()
    kernel.run()
    wall = time.perf_counter_ns() - start
    assert all(p.host_ns > 0 for p in procs)
    assert sum(p.host_ns for p in procs) <= wall
    # the consumer's own host work is charged to the consumer
    assert procs[1].host_ns >= spent["consumer"]


def test_the_clock_is_no_metric_and_no_trace_event():
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    metrics = kernel.enable_metrics()

    def work(ctx, buf):
        ctx.kernel.sleep(0.001)
        return buf

    prog = FGProgram(kernel, name="clocked")
    prog.add_pipeline("p", [Stage.map("work", work)], nbuffers=2,
                      buffer_bytes=8, rounds=4)
    kernel.spawn(prog.run, name="main")
    kernel.run()
    assert all(p.host_ns > 0 for p in kernel.processes)
    snapshot = metrics.snapshot()
    names = [metric for kind in ("counters", "gauges", "histograms")
             for metric in snapshot[kind]]
    assert names and not [n for n in names if "host" in n]
    assert not [e for e in tracer.events if "host" in str(e.detail)]
