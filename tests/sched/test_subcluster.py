"""SubCluster isolation: rank translation and per-job tag windows."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.errors import SchedError
from repro.sched import SubCluster
from repro.sched.subcluster import TAG_PAD, JobNetwork
from repro.sim.virtual import VirtualTimeKernel

TAG = 7  # the same user tag, deliberately shared by both jobs


def test_job_network_validates_alloc_and_tag_base():
    cluster = Cluster(n_nodes=4)
    with pytest.raises(SchedError, match="duplicate"):
        JobNetwork(cluster.network, [1, 1], tag_base=0)
    with pytest.raises(SchedError, match="out of range"):
        JobNetwork(cluster.network, [3, 4], tag_base=0)
    with pytest.raises(SchedError, match="tag_base"):
        JobNetwork(cluster.network, [0, 1], tag_base=-1)


def test_local_ranks_and_translated_tags():
    kernel = VirtualTimeKernel()
    cluster = Cluster(n_nodes=4, kernel=kernel)
    sub = SubCluster(cluster, alloc=[2, 3], tag_base=1024)
    assert sub.n_nodes == 2
    assert [c.rank for c in sub.comms] == [0, 1]

    seen = {}

    def main(node, comm):
        if comm.rank == 0:
            comm.send(1, np.arange(4, dtype=np.uint8), tag=TAG)
        else:
            src, payload = comm.recv(tag=TAG)
            seen["src"] = src
            seen["payload"] = list(payload)

    sub.spawn_spmd(main, name="iso")
    kernel.run()
    # receiver sees the *local* source rank, not physical node 2
    assert seen["src"] == 0
    assert seen["payload"] == [0, 1, 2, 3]
    # and on the wire the tag lived inside the job's window
    phys = sub.network._phys_tag(TAG)
    assert phys == 1024 + TAG_PAD + TAG


def test_two_jobs_same_tag_never_cross():
    """Two jobs use the same user tag concurrently; each receives only
    its own traffic because their tag windows (and nodes) are disjoint."""
    kernel = VirtualTimeKernel()
    cluster = Cluster(n_nodes=4, kernel=kernel)
    jobs = {
        "a": SubCluster(cluster, alloc=[0, 1], tag_base=1024),
        "b": SubCluster(cluster, alloc=[2, 3], tag_base=2048),
    }
    got = {}

    def main(node, comm, label, value):
        if comm.rank == 0:
            payload = np.full(8, value, dtype=np.uint8)
            comm.send(1, payload, tag=TAG)
        else:
            src, payload = comm.recv(tag=TAG)
            got[label] = (src, int(payload[0]))

    jobs["a"].spawn_spmd(main, "a", 11, name="job-a")
    jobs["b"].spawn_spmd(main, "b", 22, name="job-b")
    kernel.run()
    assert got == {"a": (0, 11), "b": (0, 22)}


def test_collectives_work_inside_a_window():
    """The negative internal collective tags translate cleanly too."""
    kernel = VirtualTimeKernel()
    cluster = Cluster(n_nodes=4, kernel=kernel)
    sub = SubCluster(cluster, alloc=[1, 3], tag_base=4096)
    sums = []

    def main(node, comm):
        total = sum(comm.allgather(comm.rank + 1))
        sums.append(total)

    sub.spawn_spmd(main, name="coll")
    kernel.run()
    assert sums == [3, 3]


def test_injector_is_hidden():
    cluster = Cluster(n_nodes=2)
    sub = SubCluster(cluster, alloc=[0, 1], tag_base=1024)
    assert sub.injector is None
    assert sub.hardware is cluster.hardware
    assert sub.kernel is cluster.kernel
