"""Unit tests for the MPI-like communicator (collectives on a cluster)."""

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.errors import CommError


def fast_cluster(n_nodes):
    """Cluster with negligible latencies so tests focus on semantics."""
    hw = HardwareModel(net_bandwidth=1e12, net_latency=0.0,
                       disk_bandwidth=1e12, disk_seek=0.0,
                       copy_cost_per_byte=0.0)
    return Cluster(n_nodes=n_nodes, hardware=hw)


def test_send_recv_between_mains():
    cluster = fast_cluster(2)

    def main(node, comm):
        if comm.rank == 0:
            comm.send(1, np.arange(10), tag=5)
            return None
        src, data = comm.recv(source=0, tag=5)
        return (src, data.sum())

    results = cluster.run(main)
    assert results[1] == (0, 45)


def test_barrier_synchronizes():
    cluster = fast_cluster(4)

    def main(node, comm):
        node.kernel.sleep(float(comm.rank))  # ranks arrive at 0,1,2,3
        comm.barrier()
        return node.kernel.now()

    results = cluster.run(main)
    assert all(t >= 3.0 for t in results)


def test_bcast_from_each_root():
    for root in range(3):
        cluster = fast_cluster(3)

        def main(node, comm, root=root):
            payload = {"splitters": [1, 2]} if comm.rank == root else None
            return comm.bcast(payload, root=root)

        results = cluster.run(main)
        assert all(r == {"splitters": [1, 2]} for r in results)


def test_gather_collects_in_rank_order():
    cluster = fast_cluster(4)

    def main(node, comm):
        return comm.gather(comm.rank * 10, root=0)

    results = cluster.run(main)
    assert results[0] == [0, 10, 20, 30]
    assert results[1] is None


def test_allgather():
    cluster = fast_cluster(3)

    def main(node, comm):
        return comm.allgather(f"r{comm.rank}")

    results = cluster.run(main)
    assert all(r == ["r0", "r1", "r2"] for r in results)


def test_scatter():
    cluster = fast_cluster(3)

    def main(node, comm):
        payloads = ["a", "b", "c"] if comm.rank == 0 else None
        return comm.scatter(payloads, root=0)

    assert cluster.run(main) == ["a", "b", "c"]


def test_scatter_wrong_length_rejected():
    cluster = fast_cluster(2)

    def main(node, comm):
        payloads = ["only-one"] if comm.rank == 0 else None
        return comm.scatter(payloads, root=0)

    with pytest.raises(Exception) as exc_info:
        cluster.run(main)
    assert isinstance(exc_info.value.original, CommError)


def test_alltoallv_permutes_chunks():
    cluster = fast_cluster(3)

    def main(node, comm):
        chunks = [f"{comm.rank}->{j}" for j in range(comm.size)]
        return comm.alltoallv(chunks)

    results = cluster.run(main)
    for j, received in enumerate(results):
        assert received == [f"{i}->{j}" for i in range(3)]


def test_alltoall_requires_equal_sizes():
    cluster = fast_cluster(2)

    def main(node, comm):
        if comm.rank == 0:
            chunks = [np.zeros(1, np.uint8), np.zeros(2, np.uint8)]
        else:
            chunks = [np.zeros(1, np.uint8), np.zeros(1, np.uint8)]
        return comm.alltoall(chunks)

    with pytest.raises(Exception) as exc_info:
        cluster.run(main)
    assert isinstance(exc_info.value.original, CommError)


def test_alltoall_balanced_roundtrip():
    cluster = fast_cluster(4)

    def main(node, comm):
        chunks = [np.full(8, comm.rank * 10 + j, dtype=np.int64)
                  for j in range(comm.size)]
        received = comm.alltoall(chunks)
        return [int(chunk[0]) for chunk in received]

    results = cluster.run(main)
    for j, got in enumerate(results):
        assert got == [i * 10 + j for i in range(4)]


def test_sendrecv_replace_exchanges():
    cluster = fast_cluster(2)

    def main(node, comm):
        peer = 1 - comm.rank
        return comm.sendrecv_replace(f"mine-{comm.rank}", peer)

    assert cluster.run(main) == ["mine-1", "mine-0"]


def test_sendrecv_replace_self_is_identity():
    cluster = fast_cluster(1)

    def main(node, comm):
        return comm.sendrecv_replace("me", 0)

    assert cluster.run(main) == ["me"]


def test_negative_user_tag_rejected():
    cluster = fast_cluster(2)

    def main(node, comm):
        if comm.rank == 0:
            comm.send(1, b"", tag=-3)
        else:
            comm.recv(source=0)

    with pytest.raises(Exception) as exc_info:
        cluster.run(main)
    assert isinstance(exc_info.value.original, CommError)


def test_consecutive_collectives_do_not_interfere():
    cluster = fast_cluster(3)

    def main(node, comm):
        first = comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
        comm.barrier()
        second = comm.bcast("two" if comm.rank == 0 else None, root=0)
        third = comm.allgather(comm.rank)
        return first, second, third

    results = cluster.run(main)
    assert all(r == (0, "two", [0, 1, 2]) for r in results)


def test_single_node_collectives_trivial():
    cluster = fast_cluster(1)

    def main(node, comm):
        comm.barrier()
        assert comm.bcast("x", root=0) == "x"
        assert comm.gather(5, root=0) == [5]
        assert comm.alltoallv(["self"]) == ["self"]
        return True

    assert cluster.run(main) == [True]


def test_cluster_stats_accumulate():
    cluster = fast_cluster(2)

    def main(node, comm):
        node.disk.write("f", 0, np.zeros(100, dtype=np.uint8))
        if comm.rank == 0:
            comm.send(1, np.zeros(64, dtype=np.uint8), tag=0)
        else:
            comm.recv(source=0)

    cluster.run(main)
    assert cluster.total_bytes_io() == 200
    assert cluster.total_bytes_sent() == 64
