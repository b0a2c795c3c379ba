"""Tests for bounded mailboxes: backpressure, fairness, and the deadlock
modes that the unbounded (eager) default hides.

Real MPI implementations buffer only so much: large messages use a
rendezvous protocol and block the sender until the receiver is ready.
Bounded mailboxes model that — and they are where the paper's warnings
about coupled send/receive stages ("extensive bookkeeping") become
observable failures instead of hand-waving.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.errors import ConfigError, DeadlockError
from repro.sorting.dsort import DsortConfig, run_dsort
from repro.sorting.verify import verify_striped_output
from repro.pdm.records import RecordSchema
from repro.workloads.generator import generate_input


def make_cluster(n, capacity):
    hw = HardwareModel(net_bandwidth=100.0, net_latency=0.0,
                       disk_bandwidth=1e9, disk_seek=0.0,
                       copy_cost_per_byte=0.0)
    return Cluster(n_nodes=n, hardware=hw,
                   mailbox_capacity_bytes=capacity)


def test_sender_blocks_until_receiver_drains():
    cluster = make_cluster(2, capacity=100)
    times = {}

    def main(node, comm):
        if comm.rank == 0:
            comm.send(1, b"x" * 100, tag=0)   # fills the mailbox
            comm.send(1, b"y" * 100, tag=0)   # must wait for the drain
            times["second_send_done"] = node.kernel.now()
        else:
            node.kernel.sleep(50.0)
            comm.recv(source=0)
            comm.recv(source=0)

    cluster.run(main)
    # second send could start only after the t=50 drain
    assert times["second_send_done"] >= 50.0


def test_oversize_message_passes_when_buffer_empty():
    cluster = make_cluster(2, capacity=10)

    def main(node, comm):
        if comm.rank == 0:
            comm.send(1, b"z" * 1000, tag=0)  # bigger than the whole cap
        else:
            src, payload = comm.recv(source=0)
            return len(payload)

    assert cluster.run(main)[1] == 1000


def test_zero_byte_end_markers_never_block():
    cluster = make_cluster(2, capacity=50)

    def main(node, comm):
        if comm.rank == 0:
            comm.send(1, b"a" * 50, tag=0)
            for _ in range(10):
                comm.send(1, b"", tag=0)  # all fit: zero bytes
            return None
        results = [comm.recv(source=0) for _ in range(11)]
        return len(results)

    assert cluster.run(main)[1] == 11


def test_fifo_fair_reservations():
    """A big reservation at the head is not starved by small ones."""
    cluster = make_cluster(3, capacity=100)
    order = []

    def main(node, comm):
        if comm.rank == 0:
            comm.send(2, b"f" * 100, tag=0)        # fill
            node.kernel.sleep(1.0)
            comm.send(2, b"B" * 90, tag=1)         # big, queued first
            order.append(("big", node.kernel.now()))
        elif comm.rank == 1:
            node.kernel.sleep(3.0)  # strictly after the big one queues
            # 90+20 > 100, so the small message must wait behind the big
            # reservation AND its consumption
            comm.send(2, b"s" * 20, tag=2)
            order.append(("small", node.kernel.now()))
        else:
            node.kernel.sleep(10.0)
            comm.recv(source=0, tag=0)   # frees room for the big message
            comm.recv(source=0, tag=1)   # only now can the small one fit
            comm.recv(source=1, tag=2)

    cluster.run(main)
    assert order[0][0] == "big"


def test_loopback_is_exempt():
    cluster = make_cluster(1, capacity=10)

    def main(node, comm):
        for _ in range(5):
            comm.send(0, b"m" * 100, tag=0)  # way over capacity, loopback
        return [comm.recv(source=0)[1] for _ in range(5)]

    out = cluster.run(main)[0]
    assert len(out) == 5


def test_coupled_send_receive_deadlocks_and_is_diagnosed():
    """Two nodes that send a large burst before receiving deadlock under
    bounded mailboxes — and the kernel names the culprits.  This is the
    failure mode FG's disjoint pipelines exist to prevent."""
    cluster = make_cluster(2, capacity=100)

    def main(node, comm):
        peer = 1 - comm.rank
        for _ in range(3):                  # 300 B burst into a 100 B cap
            comm.send(peer, b"x" * 100, tag=0)
        for _ in range(3):
            comm.recv(source=peer)

    with pytest.raises(DeadlockError) as exc_info:
        cluster.run(main)
    # no wait-for cycle line: mailbox waits name no counterparties
    assert str(exc_info.value) == (
        "deadlock: all live processes are blocked and no timed event is "
        "pending\n"
        "  - main@0: waiting on reserve 100B in full mailbox1 (cap 100B) "
        "(1 pending, 100/100 B buffered)\n"
        "  - main@1: waiting on reserve 100B in full mailbox0 (cap 100B) "
        "(1 pending, 100/100 B buffered)")


def test_disjoint_pipelines_survive_where_coupling_deadlocks():
    """The same traffic pattern is fine when sends and receives live in
    independent threads (FG's disjoint-pipeline argument, distilled)."""
    cluster = make_cluster(2, capacity=100)
    received = {0: 0, 1: 0}

    def main(node, comm):
        peer = 1 - comm.rank

        def sender():
            for _ in range(3):
                comm.send(peer, b"x" * 100, tag=0)

        def receiver():
            for _ in range(3):
                comm.recv(source=peer)
                received[comm.rank] += 1

        s = node.kernel.spawn(sender, name=f"send@{comm.rank}")
        r = node.kernel.spawn(receiver, name=f"recv@{comm.rank}")
        s.join()
        r.join()

    cluster.run(main)
    assert received == {0: 3, 1: 3}


def test_dsort_correct_under_bounded_mailboxes():
    """dsort's disjoint send/receive pipelines drain continuously, so it
    completes (and stays correct) even with tight message buffers."""
    schema = RecordSchema.paper_16()
    hw = HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                       disk_bandwidth=1e9, disk_seek=1e-5)
    config = DsortConfig(block_records=128, vertical_block_records=64,
                         out_block_records=128, oversample=8)
    # capacity of ~4 blocks of records
    cluster = Cluster(n_nodes=4, hardware=hw,
                      mailbox_capacity_bytes=128 * 16 * 4)
    manifest = generate_input(cluster, schema, 2000, "uniform", seed=2)
    cluster.run(run_dsort, schema, config)
    verify_striped_output(cluster, manifest, config.output_file,
                          config.out_block_records)


def test_invalid_capacity_rejected():
    # validated up front by the Cluster constructor now, with the
    # deadlock consequence spelled out in the message
    with pytest.raises(ConfigError, match="mailbox_capacity_bytes"):
        make_cluster(2, capacity=0)
