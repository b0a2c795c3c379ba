"""``Resource.hold``: one park per timed operation, both ends run by the
scheduler.

``resource.hold(seconds, units)`` is ``with resource.request(units):
kernel.sleep(seconds)``.  The base ``Kernel``, and so the real-time
kernel, runs exactly that bracket; the virtual-time kernel lets its
scheduler start a granted holder's sleep and release its units when the
sleep is over (``repro.sim.kernel``, "Holds").  These tests hold the two
against each other on generated programs — the same trace, switch count,
clock and per-resource accounting — and pin the edges: bad times refused
before a unit is taken, a time function that raises or returns nonsense
under the scheduler, an abort mid-hold, the instant a time function is
asked, fault-injector factors read at the grant, and the real-time kernel.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import Disk
from repro.cluster.hardware import HardwareModel
from repro.cluster.network import Network
from repro.cluster.storage import MemoryStorage
from repro.errors import ProcessFailed
from repro.faults import FaultInjector, FaultPlan
from repro.sim import (
    Channel,
    RealTimeKernel,
    Resource,
    Tracer,
    VirtualTimeKernel,
)
from repro.sim.kernel import Kernel
from tests.sim.test_carriers import _kernel_threads


def _holder(kernel, inline):
    """The hold to use on ``kernel``: the scheduler's, or the bracket it
    stands for, written out."""
    if inline:
        def hold(resource, seconds, units=1):
            resource.hold(seconds, units)
    else:
        def hold(resource, seconds, units=1):
            with resource.request(units):
                kernel.sleep(seconds() if callable(seconds) else seconds)
    return hold


def _outcome(kernel, resources, procs):
    return ([tuple(e) for e in kernel.tracer.events], kernel.switches,
            kernel.now(),
            [(r.busy_time(), r.acquisitions, r.in_use) for r in resources],
            [(p.result, type(p.exception)) for p in procs])


# -- generated programs: the scheduler's holds == the bracket -----------

TIMES = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 1.0])


@st.composite
def programs(draw):
    """Workers that hold and sleep, plus an optional producer/consumer
    pair that holds around each channel transfer, over 1-3 resources."""
    capacities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))

    def hold_op():
        r = draw(st.integers(0, len(capacities) - 1))
        units = draw(st.integers(1, capacities[r]))
        return ("hold", r, units, draw(TIMES), draw(st.booleans()))

    def op():
        if draw(st.integers(0, 3)) == 0:
            return ("sleep", draw(TIMES))
        return hold_op()

    workers = draw(st.lists(st.lists(st.builds(op), min_size=1,
                                     max_size=5),
                            min_size=1, max_size=5))
    items = draw(st.lists(st.tuples(st.builds(hold_op), st.builds(hold_op)),
                          max_size=4))
    capacity = draw(st.sampled_from([None, 0, 1]))
    return capacities, workers, items, capacity


def run_program(program, inline):
    capacities, workers, items, capacity = program
    kernel = VirtualTimeKernel(tracer=Tracer())
    hold = _holder(kernel, inline)
    resources = [Resource(kernel, c, name=f"r{i}")
                 for i, c in enumerate(capacities)]
    procs = []

    def run_op(op):
        if op[0] == "sleep":
            kernel.sleep(op[1])
            return
        _, r, units, duration, as_function = op
        seconds = (lambda: duration) if as_function else duration
        hold(resources[r], seconds, units)

    def worker(ops):
        stamps = []
        for op in ops:
            run_op(op)
            stamps.append(kernel.now())
        return stamps

    def producer():
        for i, (before, _) in enumerate(items):
            run_op(before)
            channel.put(i)

    def consumer():
        got = []
        for _, after in items:
            got.append((channel.get(), kernel.now()))
            run_op(after)
        return got

    for i, ops in enumerate(workers):
        procs.append(kernel.spawn(worker, ops, name=f"w{i}"))
    if items:
        channel = Channel(kernel, capacity=capacity, name="wire")
        procs.append(kernel.spawn(producer, name="producer"))
        procs.append(kernel.spawn(consumer, name="consumer"))
    kernel.run()
    return kernel, _outcome(kernel, resources, procs)


@settings(max_examples=150, deadline=None)
@given(programs())
def test_scheduler_holds_are_the_bracket(program):
    bracket, expected = run_program(program, inline=False)
    inline, outcome = run_program(program, inline=True)
    assert outcome == expected
    assert bracket.granted == 0
    assert inline.switches - inline.handoffs - inline.granted >= 0
    assert _kernel_threads() == []


# -- what the scheduler saves -------------------------------------------


def test_a_contended_hold_is_granted_and_released_without_a_wake():
    outcomes, counts = [], []
    for inline in (False, True):
        kernel = VirtualTimeKernel(tracer=Tracer())
        hold = _holder(kernel, inline)
        arm = Resource(kernel, name="arm")
        asked = []

        def seconds():
            asked.append(kernel.now())
            return 1.0

        def worker():
            hold(arm, seconds)
            kernel.sleep(0.5)

        for name in ("a", "b", "c"):
            kernel.spawn(worker, name=name)
        kernel.run()
        outcomes.append(_outcome(kernel, [arm], []))
        counts.append((kernel.switches, kernel.handoffs, kernel.granted))
        # b and c queue at 0; each is asked for its time once, when granted
        assert asked == [0.0, 1.0, 2.0]
    assert outcomes[0] == outcomes[1]
    # b's and c's sleeps on the arm started without waking either: two
    # wake-ups fewer per contended hold, one for the grant and one for
    # the wake-up that passed the token on after the sleep began
    assert counts == [(8, 7, 0), (8, 3, 2)]


def test_the_base_kernel_hold_is_the_bracket():
    outcomes = []
    for hold in (None, Kernel.hold):
        kernel = VirtualTimeKernel(tracer=Tracer())
        arm = Resource(kernel, 2, name="arm")

        def worker(units, seconds):
            if hold is None:
                arm.hold(seconds, units)
            else:
                hold(kernel, arm, seconds, units)

        kernel.spawn(worker, 2, 0.5, name="two")
        kernel.spawn(worker, 1, lambda: 0.25, name="one")
        kernel.spawn(worker, 1, 0.0, name="zero")
        kernel.run()
        outcomes.append(_outcome(kernel, [arm], []))
    assert outcomes[0] == outcomes[1]


# -- bad times and bad units ---------------------------------------------

BAD_TIMES = [math.nan, math.inf, -math.inf, -1e-9]


@pytest.mark.parametrize("seconds", BAD_TIMES)
@pytest.mark.parametrize("kernel_cls", [VirtualTimeKernel, RealTimeKernel])
def test_a_bad_time_is_refused_before_a_unit_is_taken(kernel_cls, seconds):
    kernel = kernel_cls()
    arm = Resource(kernel, name="arm")
    errors = []

    def holder():
        for attempt in (lambda: arm.hold(seconds),
                        lambda: Kernel.hold(kernel, arm, seconds)):
            try:
                attempt()
            except ValueError as exc:
                errors.append((str(exc), arm.acquisitions, arm.in_use))

    kernel.spawn(holder, name="holder")
    kernel.run()
    assert errors == [(f"hold time must be finite and >= 0: {seconds}",
                       0, 0)] * 2


@pytest.mark.parametrize("units", [0, 3])
def test_bad_units_are_refused_before_a_unit_is_taken(units):
    kernel = VirtualTimeKernel()
    arm = Resource(kernel, 2, name="arm")
    with pytest.raises(ValueError, match=f"cannot acquire {units} units"):
        arm.hold(1.0, units)
    assert (arm.acquisitions, arm.in_use) == (0, 0)


def _raises():
    raise KeyError("gone")


BAD_FUNCTIONS = {"raises": (_raises, KeyError),
                 "nan": (lambda: math.nan, ValueError),
                 "negative": (lambda: -1.0, ValueError)}


@pytest.mark.parametrize("queued", [False, True], ids=["at-once", "queued"])
@pytest.mark.parametrize("bad", sorted(BAD_FUNCTIONS))
def test_a_bad_time_function_fails_its_own_holder(bad, queued):
    """Asked by the holder itself (``at-once``) or by the scheduler at the
    grant (``queued``): the holder wakes, gives its unit back and fails
    with the function's error, exactly as the bracket does."""
    function, error = BAD_FUNCTIONS[bad]
    outcomes = []
    for inline in (False, True):
        kernel = VirtualTimeKernel(tracer=Tracer())
        hold = _holder(kernel, inline)
        arm = Resource(kernel, name="arm")
        if queued:
            kernel.spawn(hold, arm, 1.0, name="first")
        holder = kernel.spawn(hold, arm, function, name="holder")
        with pytest.raises(ProcessFailed) as info:
            kernel.run()
        assert info.value.process_name == "holder"
        assert isinstance(info.value.original, error)
        assert kernel.granted == 0
        assert _kernel_threads() == []
        outcomes.append(_outcome(kernel, [arm], [holder]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][3] == [(1.0 if queued else 0.0, 1 + queued, 0)]


def test_an_abort_releases_what_a_holder_holds():
    """Three holders when a sibling fails at t=3: one asleep since its own
    grant, one asleep since a release granted it, one still queued.  As
    with the bracket, the two sleepers give their units back as they
    unwind (which grants the queued one, now dead, both)."""
    before = threading.active_count()
    outcomes = []
    for inline in (False, True):
        kernel = VirtualTimeKernel()
        hold = _holder(kernel, inline)
        arm = Resource(kernel, 2, name="arm")

        def boom():
            kernel.sleep(3.0)
            raise RuntimeError("boom")

        kernel.spawn(hold, arm, 10.0, name="own")
        kernel.spawn(hold, arm, 2.0, name="short")
        kernel.spawn(hold, arm, 5.0, name="granted")
        kernel.spawn(hold, arm, 1.0, 2, name="queued")
        kernel.spawn(boom, name="boom")
        with pytest.raises(ProcessFailed, match="boom"):
            kernel.run()
        # the unwinding order is the OS's, so no trace is compared
        outcomes.append((kernel.switches, kernel.now(), arm.busy_time(),
                         arm.acquisitions, arm.in_use))
        assert kernel.granted == inline
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1:] == (3.0, 6.0, 4, 2)
    assert _kernel_threads() == []
    assert threading.active_count() == before


# -- fault-injector factors are read at the grant -------------------------


def test_a_straggler_window_opening_while_a_disk_op_queues_is_read_at_grant():
    kernel = VirtualTimeKernel()
    plan = FaultPlan(seed=0).with_straggler(0, slowdown=4.0, start=0.5)
    disk = Disk(kernel, MemoryStorage(),
                HardwareModel(disk_bandwidth=100.0, disk_seek=0.0),
                injector=FaultInjector(kernel, plan, n_nodes=1))
    data = np.zeros(100, dtype=np.uint8)  # 1 s of arm time at full speed
    done = {}

    def writer(name):
        disk.write(name, 0, data)
        done[name] = kernel.now()

    kernel.spawn(writer, "first", name="first")
    kernel.spawn(writer, "second", name="second")
    kernel.run()
    # "second" asks for the arm at 0, before the window, and gets it at
    # 1, inside it: four times as slow
    assert done == {"first": 1.0, "second": 5.0}


def test_a_nic_degradation_opening_while_a_send_queues_is_read_at_grant():
    kernel = VirtualTimeKernel()
    plan = FaultPlan(seed=0).with_nic_degradation(3.0, rank=0, start=0.5)
    network = Network(kernel, HardwareModel(net_bandwidth=100.0,
                                            net_latency=0.0),
                      n_nodes=2,
                      injector=FaultInjector(kernel, plan, n_nodes=2))
    done = {}

    def sender(tag):
        network.send(0, 1, None, tag=tag, nbytes=100)  # 1 s of wire
        done[tag] = kernel.now()

    kernel.spawn(sender, 1, name="first")
    kernel.spawn(sender, 2, name="second")
    kernel.run()
    assert done == {1: 1.0, 2: 4.0}


# -- the real-time kernel ------------------------------------------------


def test_real_time_hold_takes_and_gives_back_its_units():
    kernel = RealTimeKernel(time_scale=0.0)
    arm = Resource(kernel, 2, name="arm")
    asked = []
    seen = []

    def seconds():
        asked.append(None)
        seen.append(arm.in_use)
        return 1.0

    def worker(units):
        for _ in range(10):
            arm.hold(seconds, units)
            arm.hold(0.5, units)
        try:
            arm.hold(_raises)
        except KeyError:
            pass

    for units in (1, 1, 2):
        kernel.spawn(worker, units, name=f"w{units}")
    kernel.run(timeout=30.0)
    assert len(asked) == 30
    assert all(0 < in_use <= 2 for in_use in seen)  # asked while held
    assert (arm.acquisitions, arm.in_use) == (63, 0)
