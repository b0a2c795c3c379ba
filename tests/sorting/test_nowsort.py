"""Tests for the NOW-Sort-style variant (fixed splitters, local output)."""

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.errors import SortError, VerificationError
from repro.pdm.records import RecordSchema
from repro.sorting.dsort import (
    DsortConfig,
    Splitters,
    run_nowsort,
    uniform_splitters,
)
from repro.sorting.verify import verify_partitioned_output
from repro.workloads.generator import generate_input

SCHEMA = RecordSchema.paper_16()


def fast_hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


def run_case(distribution, n_nodes=4, n_per_node=2000, splitters=None,
             seed=0):
    cluster = Cluster(n_nodes=n_nodes, hardware=fast_hw())
    manifest = generate_input(cluster, SCHEMA, n_per_node, distribution,
                              seed=seed)
    config = DsortConfig(block_records=256, vertical_block_records=64,
                         out_block_records=256)
    reports = cluster.run(run_nowsort, SCHEMA, config, splitters)
    verify_partitioned_output(cluster, manifest, config.output_file)
    return cluster, reports


def test_nowsort_sorts_uniform_input():
    _, reports = run_case("uniform")
    # uniform keys + uniform splitters: balanced within sampling noise
    sizes = [r.partition_records for r in reports]
    assert max(sizes) <= 1.2 * (sum(sizes) / len(sizes))


def test_nowsort_no_sampling_phase():
    _, reports = run_case("uniform")
    for rep in reports:
        assert not hasattr(rep, "sampling_time")
        assert rep.pass1_time > 0 and rep.pass2_time > 0


def test_nowsort_skewed_input_is_correct_but_unbalanced():
    """std-normal keys against uniform splitters: the middle nodes drown
    (NOW-Sort's stated weakness), yet the output is still correct."""
    _, reports = run_case("std_normal")
    sizes = [r.partition_records for r in reports]
    assert max(sizes) > 1.5 * (sum(sizes) / len(sizes))


def test_nowsort_custom_splitters():
    keys = np.array([100, 200, 300], dtype=np.uint64)
    splitters = Splitters(keys=keys,
                          nodes=np.zeros(3, dtype=np.int64),
                          indices=np.zeros(3, dtype=np.int64))
    cluster, _ = run_case("poisson", n_nodes=4, splitters=splitters)
    # Poisson(1) keys are tiny, so everything lands on node 0
    from repro.pdm.blockfile import RecordFile
    n0 = RecordFile(cluster.node(0).disk, "output", SCHEMA).n_records
    assert n0 == 4 * 2000


def test_nowsort_wrong_splitter_count_rejected():
    splitters = uniform_splitters(3)  # for a 4-node cluster -> wrong
    cluster = Cluster(n_nodes=4, hardware=fast_hw())
    generate_input(cluster, SCHEMA, 100, "uniform")
    with pytest.raises(Exception) as exc_info:
        cluster.run(run_nowsort, SCHEMA, DsortConfig(block_records=64,
                                                     oversample=1),
                    splitters)
    assert isinstance(exc_info.value.original, SortError)


def test_uniform_splitters_shape():
    sp = uniform_splitters(8)
    assert sp.n_partitions == 8
    assert len(sp.keys) == 7
    assert (np.diff(sp.keys.astype(np.float64)) > 0).all()
    with pytest.raises(SortError):
        uniform_splitters(0)


def test_verify_partitioned_output_catches_order_violation():
    cluster, _ = run_case("uniform")
    # corrupt node 0's last record with the max key
    from repro.pdm.blockfile import RecordFile
    rf = RecordFile(cluster.node(0).disk, "output", SCHEMA)
    rf.poke(rf.n_records - 1,
            SCHEMA.from_keys(np.array([2**64 - 1], dtype=np.uint64)))
    from repro.workloads.generator import DatasetManifest  # noqa: F401
    manifest = generate_input(  # regenerate manifest object only
        Cluster(n_nodes=4, hardware=fast_hw()), SCHEMA, 2000, "uniform",
        seed=0)
    with pytest.raises(VerificationError):
        verify_partitioned_output(cluster, manifest, "output")


@pytest.mark.parametrize("n_nodes, n_per_node, out_block", [
    (1, 4096, 1024),  # one node holds everything: 4 output blocks
    (3, 1024, 512),   # tiny keys all land on node 0: 6 output blocks
])
def test_partition_of_whole_output_blocks_strands_no_buffer(
        monkeypatch, n_nodes, n_per_node, out_block):
    """A partition that is an exact multiple of ``out_block_records``:
    the last refill finds every run finished, and a merge stage that had
    already taken its next output buffer was left holding it empty —
    FGSan's leak check at teardown.  The shared run-merge only takes an
    output buffer once a record is ready for it."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    keys = np.arange(1, n_nodes, dtype=np.uint64) * 1000
    zeros = np.zeros(n_nodes - 1, dtype=np.int64)
    splitters = Splitters(keys=keys, nodes=zeros, indices=zeros)
    cluster = Cluster(n_nodes=n_nodes, hardware=fast_hw())
    manifest = generate_input(cluster, SCHEMA, n_per_node, "poisson")
    config = DsortConfig(block_records=256, vertical_block_records=64,
                         out_block_records=out_block)
    reports = cluster.run(run_nowsort, SCHEMA, config, splitters)
    assert reports[0].partition_records == n_nodes * n_per_node
    verify_partitioned_output(cluster, manifest, config.output_file)
