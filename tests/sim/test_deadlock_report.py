"""The deadlock report carries live detail per blocked process:
channel occupancy/capacity and owning pipeline, resource usage/queue."""

import pytest

from repro.errors import DeadlockError
from repro.cluster.network import Mailbox
from repro.sim import Channel, Resource, VirtualTimeKernel


def test_blocked_get_reports_occupancy_and_capacity():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, capacity=4, name="starved")
    kernel.spawn(ch.get, name="getter")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    message = str(exc_info.value)
    assert "getter" in message and "starved" in message
    assert "(occupancy 0/4)" in message


def test_unbounded_channel_reports_inf_capacity():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, name="endless")
    kernel.spawn(ch.get, name="getter")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    assert "(occupancy 0/inf)" in str(exc_info.value)


def test_blocked_put_reports_full_channel_and_owner():
    kernel = VirtualTimeKernel()
    ch = Channel(kernel, capacity=2, name="jammed")
    ch.owner = "pass1.send"

    def producer():
        for i in range(3):  # third put blocks on the full channel
            ch.put(i)

    kernel.spawn(producer, name="producer")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    message = str(exc_info.value)
    assert "(occupancy 2/2, pipeline pass1.send)" in message


def test_blocked_resource_reports_usage_and_queue():
    kernel = VirtualTimeKernel()
    res = Resource(kernel, capacity=1, name="disk-arm")

    def hog():
        res.acquire()  # never released

    def waiter():
        kernel.sleep(1.0)
        res.acquire()

    kernel.spawn(hog, name="hog")
    kernel.spawn(waiter, name="waiter")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    message = str(exc_info.value)
    assert "waiter" in message
    assert "(in use 1/1, 1 queued)" in message


def test_report_lists_every_blocked_process():
    kernel = VirtualTimeKernel()
    a = Channel(kernel, name="qa")
    b = Channel(kernel, capacity=1, name="qb")
    kernel.spawn(a.get, name="first")
    kernel.spawn(b.get, name="second")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    message = str(exc_info.value)
    assert "first" in message and "qa" in message
    assert "second" in message and "qb" in message


def _one_of_each_park(kernel, reports):
    """One process parked in each of sleep, get, put, acquire, join,
    recv, a bounded mailbox's reserve and a queued hold, and a monitor
    that describes them all at t=1."""
    empty = Channel(kernel, capacity=2, name="empty")
    full = Channel(kernel, capacity=1, name="full")
    full.owner = "pass1.send"
    arm = Resource(kernel, capacity=1, name="disk-arm")
    nic = Resource(kernel, capacity=1, name="nic")
    mailbox = Mailbox(kernel, "mbox[0]")
    bounded = Mailbox(kernel, "mbox[1]", capacity_bytes=64)

    def putter():
        full.put(1)
        full.put(2)

    def hog(sleeper):
        arm.acquire()  # never released
        nic.acquire()  # nor this
        sleeper.join()

    def sender():
        bounded.reserve(64)  # fills the mailbox; never received
        bounded.reserve(8)

    def monitor():
        kernel.sleep(1.0)
        me = kernel.current_process()
        reports.append(kernel._describe_blocked(
            p for p in kernel.processes if p is not me))

    sleeper = kernel.spawn(kernel.sleep, 2.5, name="sleeper")
    kernel.spawn(empty.get, name="getter")
    kernel.spawn(putter, name="putter")
    kernel.spawn(hog, sleeper, name="hog")
    kernel.spawn(arm.acquire, name="waiter")
    kernel.spawn(mailbox.receive, 1, 7, name="receiver")
    kernel.spawn(sender, name="sender")
    kernel.spawn(nic.hold, 1.0, name="holder")
    kernel.spawn(monitor, name="monitor")


#: the report's lines as the parent commit (sleep reasons formatted at
#: park time, every wake on a threading.Event) printed them
PARKED_REPORT = """\
  - sleeper: waiting on sleep until t=2.5
  - getter: waiting on get <- empty (occupancy 0/2)
  - putter: waiting on put -> full (occupancy 1/1, pipeline pass1.send)
  - hog: waiting on join(sleeper)
  - waiter: waiting on acquire 1x disk-arm (in use 1/1, 1 queued)
  - receiver: waiting on recv(src=1, tag=7) <- mbox[0] \
(0 pending, 0/inf B buffered)
  - sender: waiting on reserve 8B in full mbox[1] (cap 64B) \
(0 pending, 64/64 B buffered)
  - holder: waiting on acquire 1x nic (in use 1/1, 1 queued)"""


def test_report_text_for_every_kind_of_park_is_unchanged():
    kernel = VirtualTimeKernel()
    reports = []
    _one_of_each_park(kernel, reports)
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    assert reports == [PARKED_REPORT]
    # the sleeper and its joiner have finished by the time the rest wedge
    stuck = [line for line in PARKED_REPORT.splitlines()
             if "sleeper" not in line]
    assert str(exc_info.value) == (
        "deadlock: all live processes are blocked and no timed event is "
        "pending\n" + "\n".join(stuck))
    assert kernel.now() == 2.5
