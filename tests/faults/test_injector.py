"""Tests for the deterministic fault injector (oracle semantics)."""

import pytest

from repro.errors import FaultInjected
from repro.faults import FaultInjector, FaultPlan
from repro.prov import metrics_digest, trace_digest
from repro.sim import VirtualTimeKernel
from repro.sim.trace import FAULT, Tracer

#: the pinned run's digests (last test), as the injector wrote them when it
#: kept its own ``FaultEvent`` list, counters and instants
TRACE_DIGEST = (
    "ac875b6e0d834896b70c9372373f5870bb7b3835fd4c4ad19830e5ed4b0714b8")
METRICS_DIGEST = (
    "a3c67e109ba9d33a871e88e2220b66842f209d39d328964625e90055ad29f7ff")


def make(plan, n_nodes=3):
    return FaultInjector(VirtualTimeKernel(), plan, n_nodes)


def test_site_streams_are_deterministic_and_independent():
    a = make(FaultPlan(seed=99))
    b = make(FaultPlan(seed=99))
    draws_a = [float(a.rng("disk.0").random()) for _ in range(8)]
    draws_b = [float(b.rng("disk.0").random()) for _ in range(8)]
    assert draws_a == draws_b
    # a different site has its own stream, unaffected by disk.0 traffic
    assert [float(a.rng("disk.1").random()) for _ in range(8)] != draws_a
    # a different seed shifts every stream
    c = make(FaultPlan(seed=100))
    assert [float(c.rng("disk.0").random()) for _ in range(8)] != draws_a


def test_disk_fault_at_fires_exactly_once_at_the_indexed_op():
    inj = make(FaultPlan(seed=0).with_disk_fault_at(rank=1, op_index=2))
    inj.disk_op(1, "read", 512)
    inj.disk_op(1, "read", 512)
    with pytest.raises(FaultInjected) as exc_info:
        inj.disk_op(1, "write", 512)
    assert exc_info.value.permanent
    assert exc_info.value.rank == 1
    # the op was still counted, so the fault never re-fires
    inj.disk_op(1, "write", 512)
    assert inj.disk_ops[1] == 4
    # other disks are untouched
    inj.disk_op(0, "read", 512)
    assert inj.decisions.entries == [
        {"time": 0.0, "kind": "disk.permanent", "site": "disk.1",
         "rank": 1, "detail": "write op #2 (512 B)"}]


def test_disk_fault_rate_extremes():
    always = make(FaultPlan(seed=0).with_disk_faults(rate=1.0))
    with pytest.raises(FaultInjected) as exc_info:
        always.disk_op(0, "read", 64)
    assert not exc_info.value.permanent  # transient by default
    never = make(FaultPlan(seed=0).with_disk_faults(rate=0.0))
    for _ in range(50):
        never.disk_op(0, "read", 64)
    assert never.decisions.entries == []


def test_disk_fault_window_not_yet_open():
    inj = make(FaultPlan(seed=0).with_disk_faults(rate=1.0, start=100.0))
    inj.disk_op(0, "read", 64)  # virtual time is 0 < window start
    assert inj.decisions.entries == []


def test_message_fate_drop_and_deliver():
    dropper = make(FaultPlan(seed=0).with_message_drops(rate=1.0))
    assert dropper.message_fate(0, 1, 1024) == "drop"
    assert dropper.decisions.entries[0]["kind"] == "net.drop"
    clean = make(FaultPlan(seed=0))
    assert clean.message_fate(0, 1, 1024) == "deliver"
    assert clean.decisions.entries == []


def test_message_drops_respect_src_dst_filters():
    inj = make(FaultPlan(seed=0).with_message_drops(rate=1.0, src=0,
                                                    dst=2))
    assert inj.message_fate(0, 1, 64) == "deliver"
    assert inj.message_fate(1, 2, 64) == "deliver"
    assert inj.message_fate(0, 2, 64) == "drop"


def test_crashed_node_black_holes_and_fails_fast():
    inj = make(FaultPlan(seed=0).with_node_crash(rank=1, at=0.0))
    assert inj.crashed(1) and not inj.crashed(0)
    # traffic addressed to the dead node vanishes like a drop
    assert inj.message_fate(0, 1, 64) == "drop"
    # the dead node's own operations raise a permanent fault
    with pytest.raises(FaultInjected) as exc_info:
        inj.check_alive(1, "disk.1")
    assert exc_info.value.permanent
    inj.check_alive(0, "disk.0")  # healthy node passes
    assert [e["kind"] for e in inj.decisions.entries] == [
        "net.drop", "node.crash"]


def test_straggler_and_nic_factors():
    inj = make(FaultPlan(seed=0)
               .with_straggler(rank=1, slowdown=3.0)
               .with_nic_degradation(factor=2.0, rank=1))
    assert inj.compute_factor(1) == 3.0
    assert inj.disk_factor(1) == 3.0
    assert inj.wire_factor(1) == 2.0
    assert inj.compute_factor(0) == 1.0
    assert inj.wire_factor(0) == 1.0
    # factors never fire fault events
    assert inj.decisions.entries == []


def test_identical_call_sequences_fire_identical_events():
    plan = (FaultPlan(seed=5)
            .with_disk_faults(rate=0.3)
            .with_message_drops(rate=0.2))

    def drive(inj):
        fired = []
        for i in range(40):
            try:
                inj.disk_op(i % 3, "read", 64)
            except FaultInjected:
                fired.append(("disk", i))
            if inj.message_fate(i % 3, (i + 1) % 3, 64) == "drop":
                fired.append(("net", i))
        return fired

    first = drive(make(plan))
    second = drive(make(plan))
    assert first and first == second


def test_fired_faults_keep_their_trace_instants_and_counters():
    """One fired fault is one ``<kind> @ <site>: <detail>`` instant, from
    the running process or else from the site, and one ``faults.<kind>``
    count, exactly as the injector wrote them before it owned a decision
    log: the digests below are that injector's, and every chaos run's
    trace and metrics digests rest on them."""
    kernel = VirtualTimeKernel(tracer=Tracer())
    kernel.enable_metrics()
    inj = FaultInjector(kernel, (FaultPlan(seed=0)
                                 .with_disk_fault_at(rank=1, op_index=0)
                                 .with_message_drops(rate=1.0)), 3)
    with pytest.raises(FaultInjected):
        inj.disk_op(1, "read", 512)

    def sender():
        kernel.sleep(0.5)
        assert inj.message_fate(0, 2, 64) == "drop"
        assert inj.message_fate(0, 2, 64) == "drop"

    kernel.spawn(sender, name="rank0.send")
    kernel.run()
    assert [tuple(ev) for ev in kernel.tracer.events
            if ev.kind == FAULT] == [
        (0.0, "disk.1", FAULT, "disk.permanent @ disk.1: read op #0 (512 B)"),
        (0.5, "rank0.send", FAULT,
         "net.drop @ net.0->2: 64 B dropped on the wire"),
        (0.5, "rank0.send", FAULT,
         "net.drop @ net.0->2: 64 B dropped on the wire")]
    snapshot = kernel.metrics.snapshot()
    assert {name: counter["value"]
            for name, counter in snapshot["counters"].items()
            if name.startswith("faults.")} == {
        "faults.disk.permanent": 1, "faults.net.drop": 2}
    assert trace_digest(kernel.tracer) == TRACE_DIGEST
    assert metrics_digest(snapshot) == METRICS_DIGEST
