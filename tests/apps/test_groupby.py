"""Tests for the distribution-based out-of-core group-by application."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import groupby as groupby_module
from repro.apps.groupby import (
    GroupByConfig,
    KeyValueSchema,
    combine_sorted,
    run_groupby,
)
from repro.cluster import Cluster, HardwareModel
from repro.cluster.storage import MemoryStorage
from repro.errors import PipelineFailed, ProcessFailed, StorageError
from repro.pdm.blockfile import RecordFile
from tests.sorting.test_failure_injection import FailingStorage

SCHEMA = KeyValueSchema()


def fast_hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


def setup_kv_input(cluster, per_node, key_space, seed=0):
    """Random (key, value) records per node; return the expected sums."""
    rng = np.random.default_rng(seed)
    expected: Counter = Counter()
    for node in cluster.nodes:
        keys = rng.integers(0, key_space, size=per_node, dtype=np.uint64)
        values = rng.integers(0, 1000, size=per_node, dtype=np.uint64)
        for k, v in zip(keys.tolist(), values.tolist()):
            expected[k] += v
        RecordFile(node.disk, "kv-input", SCHEMA).poke(
            0, SCHEMA.make(keys, values))
    return expected


def read_groups(cluster):
    """All (key, total) pairs across nodes."""
    out = {}
    for node in cluster.nodes:
        records = RecordFile(node.disk, "kv-groups", SCHEMA).read_all()
        for k, v in zip(records["key"].tolist(),
                        records["value"].tolist()):
            assert k not in out, f"key {k} emitted by two nodes"
            out[k] = v
    return out


def run_case(n_nodes=4, per_node=2000, key_space=100, seed=0,
             config=None):
    cluster = Cluster(n_nodes=n_nodes, hardware=fast_hw())
    expected = setup_kv_input(cluster, per_node, key_space, seed)
    config = config or GroupByConfig(block_records=256,
                                     vertical_block_records=64,
                                     out_block_records=128)
    reports = cluster.run(run_groupby, config)
    groups = read_groups(cluster)
    assert groups == dict(expected)
    return cluster, reports


def test_groupby_few_hot_keys():
    """100 distinct keys across 8000 records: massive combining."""
    _, reports = run_case(key_space=100)
    assert sum(r.distinct_keys for r in reports) == 100 or \
        sum(r.distinct_keys for r in reports) <= 100


def test_groupby_mostly_unique_keys():
    run_case(key_space=2**62, per_node=1000)


def test_groupby_single_key():
    cluster, reports = run_case(key_space=1, per_node=500)
    assert sum(r.distinct_keys for r in reports) == 1


def test_groupby_heavy_duplicates_with_serial_numbered_values():
    """50 keys over 4 x 8192 records whose value is a global serial
    number, so a record dropped for a copy of another one with the same
    key moves that key's sum.  2048-record blocks reach the SIMD argsort
    and its tie repair in sort_and_combine."""
    cluster = Cluster(n_nodes=4, hardware=fast_hw())
    rng = np.random.default_rng(13)
    keys = rng.integers(0, 50, size=4 * 8192, dtype=np.uint64)
    serials = np.arange(len(keys), dtype=np.uint64)
    for rank, node in enumerate(cluster.nodes):
        mine = slice(rank * 8192, (rank + 1) * 8192)
        RecordFile(node.disk, "kv-input", SCHEMA).poke(
            0, SCHEMA.make(keys[mine], serials[mine]))
    cluster.run(run_groupby, GroupByConfig(
        block_records=2048, vertical_block_records=256,
        out_block_records=128))
    sums = np.zeros(50, dtype=np.uint64)
    np.add.at(sums, keys.astype(np.int64), serials)
    assert read_groups(cluster) == {
        k: int(v) for k, v in enumerate(sums) if (keys == k).any()}


def test_groupby_single_node():
    run_case(n_nodes=1, per_node=3000, key_space=50)


def test_groupby_local_outputs_are_sorted():
    cluster, _ = run_case(key_space=1000)
    for node in cluster.nodes:
        records = RecordFile(node.disk, "kv-groups", SCHEMA).read_all()
        keys = records["key"]
        assert (keys[:-1] < keys[1:]).all()  # strictly increasing


def test_groupby_report_counts():
    _, reports = run_case(n_nodes=2, per_node=1500, key_space=30)
    assert sum(r.input_records for r in reports) == 3000
    for rep in reports:
        assert rep.pass1_time > 0 and rep.pass2_time > 0


def test_combine_sorted_basics():
    records = SCHEMA.make(np.array([1, 1, 2, 5, 5, 5], dtype=np.uint64),
                          np.array([10, 20, 3, 1, 1, 1], dtype=np.uint64))
    out = combine_sorted(records)
    assert list(out["key"]) == [1, 2, 5]
    assert list(out["value"]) == [30, 3, 3]
    assert len(combine_sorted(SCHEMA.empty(0))) == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 100)),
                min_size=0, max_size=100))
def test_property_combine_sorted_equals_counter(pairs):
    pairs.sort()
    keys = np.array([k for k, _ in pairs], dtype=np.uint64)
    values = np.array([v for _, v in pairs], dtype=np.uint64)
    out = combine_sorted(SCHEMA.make(keys, values))
    expected = Counter()
    for k, v in pairs:
        expected[k] += v
    assert {int(k): int(v) for k, v in zip(out["key"], out["value"])} \
        == dict(expected)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 7, 100, 2**40]),
       st.integers(min_value=0, max_value=50))
def test_property_groupby_end_to_end(n_nodes, key_space, seed):
    run_case(n_nodes=n_nodes, per_node=400, key_space=key_space,
             seed=seed,
             config=GroupByConfig(block_records=64,
                                  vertical_block_records=32,
                                  out_block_records=48))


# -- failure paths: groupby's pass 1 fails the way dsort's does -----------


SMALL = GroupByConfig(block_records=64, vertical_block_records=32,
                      out_block_records=48)


def test_failing_run_write_reports_only_the_injected_failure():
    """A dead ``write`` poisons the receive pipeline; ``receive`` must
    forward the caboose it then accepts and bow out — it used to ``put``
    into it, adding a second, misleading failure to the report."""
    failing = FailingStorage(fail_at_write=3)
    cluster = Cluster(n_nodes=2, hardware=fast_hw(),
                      storages=[MemoryStorage(), failing])
    setup_kv_input(cluster, per_node=1000, key_space=2**40)
    failing.armed = True
    with pytest.raises(ProcessFailed) as exc_info:
        cluster.run(run_groupby, SMALL)
    failed = exc_info.value.original
    assert isinstance(failed, PipelineFailed)
    assert [(f.stage, type(f.cause)) for f in failed.failures] \
        == [("write", StorageError)], str(failed)
    assert all(not proc.alive for proc in cluster.kernel.processes)


def test_failing_route_still_delivers_its_end_markers(monkeypatch):
    """A dead ``route`` can no longer send its end markers, and every
    receive stage counts on them: the failure hook sends them in its
    stead, so the failing rank reports PipelineFailed and its peer runs
    to the end.  Without the hook the cluster deadlocked."""
    cluster = Cluster(n_nodes=2, hardware=fast_hw())
    setup_kv_input(cluster, per_node=1000, key_space=2**40)
    real_hash = groupby_module._hash_keys
    calls = {"rank1": 0}

    def failing_hash(keys, buckets):
        if cluster.kernel.current_process().name.endswith("@1.route"):
            calls["rank1"] += 1
            if calls["rank1"] == 3:
                raise RuntimeError("injected route failure")
        return real_hash(keys, buckets)

    monkeypatch.setattr(groupby_module, "_hash_keys", failing_hash)

    def main(node, comm):
        try:
            return run_groupby(node, comm, SMALL)
        except PipelineFailed as exc:
            # stand in at the two pass barriers the dead run never
            # reached, so the peer's run can end
            comm.barrier()
            comm.barrier()
            return exc

    peer, failed = cluster.run(main)
    assert isinstance(failed, PipelineFailed)
    assert [(f.stage, str(f.cause)) for f in failed.failures] \
        == [("route", "injected route failure")], str(failed)
    assert peer.pass1_time > 0 and peer.pass2_time > 0
    assert RecordFile(cluster.node(0).disk, "kv-groups", SCHEMA).n_records \
        == peer.distinct_keys > 0
