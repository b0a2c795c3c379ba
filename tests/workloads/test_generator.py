"""Unit tests for dataset generation on the cluster."""

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.workloads.generator import INPUT_FILE, generate_input


def make_cluster(n=4):
    return Cluster(n_nodes=n, hardware=HardwareModel())


def test_every_node_gets_its_share():
    cluster = make_cluster(4)
    schema = RecordSchema.paper_16()
    manifest = generate_input(cluster, schema, n_per_node=100,
                              distribution="uniform", seed=1)
    for node in cluster.nodes:
        rf = RecordFile(node.disk, INPUT_FILE, schema)
        assert rf.n_records == 100
    assert manifest.total_records == 400
    assert manifest.total_bytes == 6400


def test_manifest_sorted_keys_match_data():
    cluster = make_cluster(3)
    schema = RecordSchema.paper_16()
    manifest = generate_input(cluster, schema, n_per_node=50,
                              distribution="std_normal", seed=5)
    all_keys = np.concatenate([
        RecordFile(node.disk, INPUT_FILE, schema).read_all()["key"]
        for node in cluster.nodes])
    np.testing.assert_array_equal(np.sort(all_keys), manifest.sorted_keys)


def test_generation_is_untimed_and_free():
    cluster = make_cluster(2)
    generate_input(cluster, RecordSchema(8), n_per_node=10,
                   distribution="uniform")
    assert cluster.kernel.now() == 0.0
    assert cluster.total_bytes_io() == 0


def test_regeneration_replaces_old_input():
    cluster = make_cluster(2)
    schema = RecordSchema(8)
    generate_input(cluster, schema, n_per_node=100, distribution="uniform")
    generate_input(cluster, schema, n_per_node=10, distribution="uniform")
    rf = RecordFile(cluster.node(0).disk, INPUT_FILE, schema)
    assert rf.n_records == 10


def test_same_seed_reproducible_across_clusters():
    schema = RecordSchema(8)
    keys = []
    for _ in range(2):
        cluster = make_cluster(2)
        generate_input(cluster, schema, n_per_node=20,
                       distribution="uniform", seed=9)
        keys.append(RecordFile(cluster.node(1).disk, INPUT_FILE,
                               schema).read_all()["key"])
    np.testing.assert_array_equal(keys[0], keys[1])


@pytest.mark.parametrize("distribution, record_bytes, inputs, sorted_keys", [
    ("uniform", 16,
     "f5799f7f2070e44e9c48d2f0dde70346b946d46561953e39797d423b62497519",
     "d035eea8949f360971d56ddac27ace9e9505be25c12996092a19488cbcd14560"),
    ("all_equal", 16,
     "2f1eb1f2c3f1945a526e1a61901b5bf06982d14a09bc763a8549bd66ca815686",
     "93af76b0d1514ed139d4715171af869f4965930d32386db748668201914b14ba"),
    ("uniform", 64,
     "48e8a4e7e978fc20d103e50b7bbd9d690b929f9da612fc0423e20306ae4d8ac3",
     "d035eea8949f360971d56ddac27ace9e9505be25c12996092a19488cbcd14560"),
])
def test_generated_bytes_are_pinned(distribution, record_bytes, inputs,
                                    sorted_keys):
    """sha256 of the three nodes' input files (rank order) and of the
    manifest's key column at seed 11, recorded before generation drew
    into one pre-sized array: same draws, same order, same bytes."""
    cluster = make_cluster(3)
    schema = RecordSchema(record_bytes)
    manifest = generate_input(cluster, schema, n_per_node=1000,
                              distribution=distribution, seed=11)
    files = hashlib.sha256()
    for node in cluster.nodes:
        files.update(
            RecordFile(node.disk, INPUT_FILE, schema).read_all().tobytes())
    assert files.hexdigest() == inputs
    assert manifest.sorted_keys.dtype == np.uint64
    assert hashlib.sha256(
        manifest.sorted_keys.tobytes()).hexdigest() == sorted_keys


def test_zero_records_rejected():
    with pytest.raises(SortError):
        generate_input(make_cluster(1), RecordSchema(8), n_per_node=0,
                       distribution="uniform")
