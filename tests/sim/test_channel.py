"""Unit tests for channels on the virtual-time kernel."""

import pytest

from repro.errors import ChannelClosed, DeadlockError
from repro.sim import Channel, Flag, VirtualTimeKernel


def run_in_kernel(fn):
    """Run ``fn(kernel)`` as the body of a single kernel process."""
    kernel = VirtualTimeKernel()
    box = {}

    def main():
        box["result"] = fn(kernel)

    kernel.spawn(main, name="main")
    kernel.run()
    return box["result"]


def test_fifo_order():
    def body(kernel):
        ch = Channel(kernel, capacity=10)
        for i in range(5):
            ch.put(i)
        return [ch.get() for _ in range(5)]

    assert run_in_kernel(body) == [0, 1, 2, 3, 4]


def test_bounded_put_blocks_until_get():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, capacity=1, name="tiny")
    times = {}

    def producer():
        ch.put("a")
        ch.put("b")  # blocks until the consumer gets "a" at t=5
        times["second_put_done"] = kernel.now()

    def consumer():
        kernel.sleep(5.0)
        assert ch.get() == "a"
        kernel.sleep(5.0)
        assert ch.get() == "b"

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()
    assert times["second_put_done"] == 5.0


def test_get_blocks_until_put():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel)
    times = {}

    def consumer():
        value = ch.get()
        times["got"] = (kernel.now(), value)

    def producer():
        kernel.sleep(3.0)
        ch.put(99)

    kernel.spawn(consumer)
    kernel.spawn(producer)
    kernel.run()
    assert times["got"] == (3.0, 99)


def test_rendezvous_capacity_zero():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, capacity=0, name="rendezvous")
    times = {}

    def producer():
        ch.put("x")
        times["put_done"] = kernel.now()

    def consumer():
        kernel.sleep(7.0)
        assert ch.get() == "x"

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()
    assert times["put_done"] == 7.0


def test_multiple_getters_served_fifo():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel)
    got = []

    def getter(tag):
        got.append((tag, ch.get()))

    def putter():
        kernel.sleep(1.0)
        for i in range(3):
            ch.put(i)

    # spawn order defines getter queue order
    for tag in "abc":
        kernel.spawn(getter, tag)
    kernel.spawn(putter)
    kernel.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]


def test_try_get_and_try_put():
    def body(kernel):
        ch = Channel(kernel, capacity=1)
        ok, item = ch.try_get()
        assert (ok, item) == (False, None)
        assert ch.try_put("x") is True
        assert ch.try_put("y") is False  # full
        ok, item = ch.try_get()
        assert (ok, item) == (True, "x")
        return True

    assert run_in_kernel(body)


def test_close_wakes_blocked_getter():
    kernel = VirtualTimeKernel()
    outcome = {}

    ch = Channel(kernel, name="closing")

    def getter():
        try:
            ch.get()
        except ChannelClosed:
            outcome["raised_at"] = kernel.now()

    def closer():
        kernel.sleep(2.0)
        ch.close()

    kernel.spawn(getter)
    kernel.spawn(closer)
    kernel.run()
    assert outcome["raised_at"] == 2.0


def test_close_drains_buffered_items_first():
    def body(kernel):
        ch = Channel(kernel, capacity=5)
        ch.put(1)
        ch.put(2)
        ch.close()
        out = [ch.get(), ch.get()]
        with pytest.raises(ChannelClosed):
            ch.get()
        return out

    assert run_in_kernel(body) == [1, 2]


def test_put_on_closed_channel_raises():
    def body(kernel):
        ch = Channel(kernel)
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.put(1)
        return True

    assert run_in_kernel(body)


def test_close_wakes_blocked_putter():
    kernel = VirtualTimeKernel()
    outcome = {}
    ch = Channel(kernel, capacity=0, name="rv")

    def putter():
        try:
            ch.put("never")
        except ChannelClosed:
            outcome["raised"] = True

    def closer():
        kernel.sleep(1.0)
        ch.close()

    kernel.spawn(putter)
    kernel.spawn(closer)
    kernel.run()
    assert outcome == {"raised": True}


def test_close_idempotent():
    def body(kernel):
        ch = Channel(kernel)
        ch.close()
        ch.close()
        return ch.closed

    assert run_in_kernel(body)


def test_negative_capacity_rejected():
    kernel = VirtualTimeKernel()
    with pytest.raises(ValueError):
        Channel(kernel, capacity=-1)


def test_delivered_counter():
    def body(kernel):
        ch = Channel(kernel, capacity=10)
        for i in range(4):
            ch.put(i)
        for _ in range(4):
            ch.get()
        return ch.delivered

    assert run_in_kernel(body) == 4


def test_producer_consumer_pipeline_timing():
    """Producer takes 1 s/item, consumer 2 s/item: pipelined total for 4
    items should be 1 + 4*2 = 9 s, not (1+2)*4 = 12 s."""
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, capacity=4)

    def producer():
        for i in range(4):
            kernel.sleep(1.0)
            ch.put(i)

    def consumer():
        for _ in range(4):
            ch.get()
            kernel.sleep(2.0)

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()
    assert kernel.now() == pytest.approx(9.0)


def test_unfed_channel_deadlocks_with_diagnostics():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, name="starved")
    kernel.spawn(lambda: ch.get(), name="hungry")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    assert "starved" in str(exc_info.value)


# -- FGRace attached: one send/handoff/receive site in the channel -----------


def test_failed_try_put_records_no_send_under_fgrace():
    """The detector keeps one sender-clock snapshot per undelivered item;
    a try_put that would block delivers nothing and must add none."""
    kernel = VirtualTimeKernel()
    race = kernel.enable_race_detection()
    ch = Channel(kernel, capacity=1)
    snapshots = []

    def main():
        assert ch.try_put("a")
        snapshots.append(len(race._chan[id(ch)]))
        assert not ch.try_put("b")  # full
        snapshots.append(len(race._chan[id(ch)]))
        assert ch.try_get() == (True, "a")
        snapshots.append(len(race._chan[id(ch)]))

    kernel.spawn(main, name="main")
    kernel.run()
    assert snapshots == [1, 1, 0]


@pytest.mark.parametrize("getter_first", [False, True])
def test_rendezvous_get_joins_the_putters_clock(getter_first):
    """capacity=0: whichever side parks first, the getter leaves knowing
    everything the putter did before its put (the send tick included)."""
    kernel = VirtualTimeKernel()
    race = kernel.enable_race_detection()
    ch = Channel(kernel, capacity=0)
    seen = {}

    def putter():
        if getter_first:
            kernel.sleep(1.0)
        seen["putter"] = kernel.current_process().pid
        ch.put("x")

    def getter():
        if not getter_first:
            kernel.sleep(1.0)
        assert ch.get() == "x"
        seen["clock"] = dict(race._clocks[kernel.current_process().pid])

    kernel.spawn(putter, name="putter")
    kernel.spawn(getter, name="getter")
    kernel.run()
    assert seen["clock"][seen["putter"]] == 1
    assert not race._chan[id(ch)]  # the snapshot was consumed


def test_flag_orders_its_setter_before_every_reader_that_sees_it():
    """A one-shot Flag never parks: the only switches are the sleeps.
    Under FGRace each reader that finds it set — not just the first —
    joins the setter's clock; one that finds it unset joins nothing."""
    kernel = VirtualTimeKernel()
    race = kernel.enable_race_detection()
    flag = Flag(kernel)
    seen = {}

    def setter():
        seen["setter"] = kernel.current_process().pid
        kernel.sleep(1.0)
        flag.set()

    def reader(name, wait):
        me = kernel.current_process().pid
        seen[name, "early"] = flag.is_set()
        seen[name, "early clock"] = dict(race._clock(me))
        kernel.sleep(wait)
        seen[name] = (flag.is_set(), dict(race._clocks[me]))

    kernel.spawn(setter, name="setter")
    kernel.spawn(reader, "a", 2.0, name="a")
    kernel.spawn(reader, "b", 3.0, name="b")
    kernel.run()
    assert kernel.switches == 3
    for name in ("a", "b"):
        assert seen[name, "early"] is False
        assert seen["setter"] not in seen[name, "early clock"]
        is_set, clock = seen[name]
        assert is_set and clock[seen["setter"]] == 1
