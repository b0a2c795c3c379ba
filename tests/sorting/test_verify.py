"""Unit tests for the output verifier: each failure mode must be caught
with a precise diagnosis (a verifier that cannot fail proves nothing)."""

import numpy as np
import pytest

from repro.bench.harness import run_sort
from repro.cluster import Cluster, HardwareModel
from repro.errors import VerificationError
from repro.pdm import striped as striped_module
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import StripedFile
from repro.sorting.verify import (
    verify_partitioned_output,
    verify_records_sorted,
    verify_striped_output,
)
from repro.workloads.generator import generate_input

SCHEMA = RecordSchema.paper_16()
BLOCK = 8


def make_correct_output(n_nodes=2, n_per_node=32, seed=0, owners=None,
                        schema=SCHEMA):
    """A cluster whose striped 'output' file is the correct sort of its
    generated input."""
    cluster = Cluster(n_nodes=n_nodes, hardware=HardwareModel())
    manifest = generate_input(cluster, schema, n_per_node, "uniform",
                              seed=seed)
    striped = StripedFile(cluster, "output", schema, BLOCK, owners=owners)
    records = schema.from_keys(manifest.sorted_keys)
    total = len(records)
    for b in range(-(-total // BLOCK)):
        lo, hi = b * BLOCK, min((b + 1) * BLOCK, total)
        striped.locals[striped.node_of_block(b)].poke(
            striped.local_block(b) * BLOCK, records[lo:hi])
    return cluster, manifest, striped


def test_correct_output_passes():
    cluster, manifest, _ = make_correct_output()
    verify_striped_output(cluster, manifest, "output", BLOCK)


def test_detects_unsorted_output():
    cluster, manifest, striped = make_correct_output()
    # swap the first two records (they are distinct with high probability)
    first = striped.locals[0].peek(0, 2)
    if first["key"][0] == first["key"][1]:
        pytest.skip("improbable tie")
    striped.locals[0].poke(0, first[::-1].copy())
    with pytest.raises(VerificationError) as exc_info:
        verify_striped_output(cluster, manifest, "output", BLOCK)
    assert "not sorted" in str(exc_info.value) or "multiset" in str(
        exc_info.value)


def test_detects_missing_records():
    cluster, manifest, striped = make_correct_output()
    last = striped.locals[-1]
    last.disk.storage.truncate("output",
                               (last.n_records - 1) * SCHEMA.record_bytes)
    with pytest.raises(VerificationError) as exc_info:
        verify_striped_output(cluster, manifest, "output", BLOCK)
    assert "expected" in str(exc_info.value)


def test_detects_wrong_key_multiset():
    cluster, manifest, striped = make_correct_output()
    # overwrite the globally last record with the maximum key: the output
    # stays sorted but the multiset no longer matches the input
    last_block = striped.total_records() // BLOCK - 1
    last = striped.locals[striped.node_of_block(last_block)]
    rec = SCHEMA.from_keys(np.array([2**64 - 1], dtype=np.uint64))
    last.poke(last.n_records - 1, rec)
    with pytest.raises(VerificationError) as exc_info:
        verify_striped_output(cluster, manifest, "output", BLOCK)
    assert "multiset" in str(exc_info.value)


def test_detects_corrupted_payload():
    cluster, manifest, striped = make_correct_output()
    # flip a payload byte of one record without touching its key
    local = striped.locals[0]
    raw = local.disk.storage.read("output", 8, 1)
    local.disk.storage.write("output", 8,
                             np.array([raw[0] ^ 0xFF], dtype=np.uint8))
    with pytest.raises(VerificationError) as exc_info:
        verify_striped_output(cluster, manifest, "output", BLOCK)
    assert "payload" in str(exc_info.value)


#: every sorter that writes PDM-striped output (nowsort partitions)
STRIPED_SORTERS = ("dsort", "dsort-linear", "csort", "csort4")


@pytest.mark.parametrize("record_bytes", [9, 12, 15])
@pytest.mark.parametrize("sorter", STRIPED_SORTERS)
def test_a_payload_under_the_stamp_verifies(sorter, record_bytes):
    """With 1-7 payload bytes ``from_keys`` writes only that many stamp
    bytes; the verifier compares exactly those (``payload_stamps``)."""
    run = run_sort(sorter, "uniform", RecordSchema(record_bytes),
                   n_nodes=2, n_per_node=1024)
    assert run.verified


def test_a_flipped_byte_of_a_short_payload_is_still_lost():
    schema = RecordSchema(12)
    cluster, manifest, striped = make_correct_output(seed=3, schema=schema)
    verify_striped_output(cluster, manifest, "output", BLOCK)
    # the last payload byte of global record 9 (node 1, local record 1)
    node, local = striped.locate(9)
    storage = striped.locals[node].disk.storage
    offset = local * schema.record_bytes + schema.record_bytes - 1
    storage.write("output", offset, storage.read("output", offset, 1) ^ 0xFF)
    with pytest.raises(VerificationError) as exc_info:
        verify_striped_output(cluster, manifest, "output", BLOCK)
    assert "record at global position 9 lost its payload" in str(
        exc_info.value)


def test_detects_misplaced_striping():
    """Right records, wrong layout: everything on node 0."""
    cluster = Cluster(n_nodes=2, hardware=HardwareModel())
    manifest = generate_input(cluster, SCHEMA, 32, "uniform", seed=1)
    records = SCHEMA.from_keys(manifest.sorted_keys)
    # dump the whole sorted output onto node 0 only
    RecordFile(cluster.node(0).disk, "output", SCHEMA).poke(0, records)
    with pytest.raises(VerificationError):
        verify_striped_output(cluster, manifest, "output", BLOCK)


def test_verify_records_sorted_reports_position():
    records = SCHEMA.from_keys(np.array([1, 5, 3], dtype=np.uint64))
    with pytest.raises(VerificationError) as exc_info:
        verify_records_sorted(records, what="runX")
    message = str(exc_info.value)
    assert "runX" in message and "key[1]" in message


def test_verify_records_sorted_accepts_edges():
    verify_records_sorted(SCHEMA.empty(0))
    verify_records_sorted(SCHEMA.empty(1))
    verify_records_sorted(SCHEMA.from_keys(
        np.array([4, 4, 4], dtype=np.uint64)))


# -- the streaming verifier reports what the whole-file one did ---------------
#
# Every diagnosis below was checked against the whole-file verifier this
# one replaced (same text, same *global* positions); the faults sit where
# walking the file in chunks could go wrong.  Chunks are cut to 64
# records (four stripe rounds of two 8-record blocks), so 2 x 107 records
# are three full chunks and a ragged fourth whose last round is 6 records.

CHUNK_RECORDS = 64

#: case -> (n_nodes, n_per_node, owners, fault position)
STREAM_CASES = {
    "inside the first chunk": (2, 107, None, 10),
    "last record of a chunk": (2, 107, None, CHUNK_RECORDS - 1),
    "first record of a chunk": (2, 107, None, 2 * CHUNK_RECORDS),
    "ragged last round": (2, 107, None, 210),
    "survivor layout": (3, 72, [2, 0], 2 * CHUNK_RECORDS - 1),
    "file under one chunk": (2, 15, None, 17),
}


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(striped_module, "CHUNK_BYTES",
                        CHUNK_RECORDS * SCHEMA.record_bytes, raising=False)


def stream_case(case):
    n_nodes, n_per_node, owners, position = STREAM_CASES[case]
    cluster, manifest, striped = make_correct_output(
        n_nodes=n_nodes, n_per_node=n_per_node, seed=5, owners=owners)
    keys = manifest.sorted_keys
    assert len(np.unique(keys)) == len(keys)   # swaps really unsort
    return cluster, manifest, striped, owners, position, keys


def poke_global(striped, position, records):
    for i in range(len(records)):
        node, local = striped.locate(position + i)
        striped.locals[node].poke(local, records[i:i + 1])


def flip_payload_byte(striped, position):
    node, local = striped.locate(position)
    storage = striped.locals[node].disk.storage
    offset = local * SCHEMA.record_bytes + SCHEMA.KEY_BYTES
    storage.write("output", offset, storage.read("output", offset, 1) ^ 0xFF)


def failure(cluster, manifest, owners):
    with pytest.raises(VerificationError) as exc_info:
        verify_striped_output(cluster, manifest, "output", BLOCK,
                              owners=owners)
    return str(exc_info.value)


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_passes_a_correct_file(small_chunks, case):
    cluster, manifest, _, owners, _, _ = stream_case(case)
    verify_striped_output(cluster, manifest, "output", BLOCK, owners=owners)


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_reports_unsorted_pair_at_its_global_position(small_chunks,
                                                             case):
    """Swapping records p and p+1 — for "last record of a chunk" the
    pair straddles two chunks."""
    cluster, manifest, striped, owners, p, keys = stream_case(case)
    poke_global(striped, p, SCHEMA.from_keys(keys[[p + 1, p]]))
    assert failure(cluster, manifest, owners) == (
        f"output not sorted: key[{p}]={keys[p + 1]} > "
        f"key[{p + 1}]={keys[p]}")


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_reports_first_wrong_key_at_its_global_position(small_chunks,
                                                               case):
    """Record p repeats its successor: still sorted, wrong multiset."""
    cluster, manifest, striped, owners, p, keys = stream_case(case)
    poke_global(striped, p, SCHEMA.from_keys(keys[[p + 1]]))
    assert failure(cluster, manifest, owners) == (
        "output keys are not the sorted input multiset: first mismatch "
        f"at global position {p}: got {keys[p + 1]}, expected {keys[p]}")


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_reports_lost_payload_at_its_global_position(small_chunks,
                                                            case):
    cluster, manifest, striped, owners, p, keys = stream_case(case)
    flip_payload_byte(striped, p)
    assert failure(cluster, manifest, owners) == (
        f"record at global position {p} lost its payload "
        "(key and payload stamp disagree)")


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_diagnoses_layout_before_content(small_chunks, case):
    """A misplaced share and a wrong total are both the layout's
    diagnosis, made before any content is read — here the content is
    unsorted too, and is not what gets reported."""
    cluster, manifest, striped, owners, p, keys = stream_case(case)
    poke_global(striped, p, SCHEMA.from_keys(keys[[p + 1, p]]))
    first, last = striped.owners[0], striped.owners[-1]
    held = {rank: striped.locals[rank].n_records
            for rank in (first, last)}
    # wrong total: the last owner's file loses its last record
    striped.locals[last].disk.storage.truncate(
        "output", (held[last] - 1) * SCHEMA.record_bytes)
    assert failure(cluster, manifest, owners) == (
        f"node {last} holds {held[last] - 1} output records, expected "
        f"{held[last]} under PDM striping")
    # misplaced share: that record turns up on the first owner instead
    striped.locals[first].poke(held[first], SCHEMA.from_keys(keys[-1:]))
    rank = min(first, last)   # shares are checked in rank order
    assert failure(cluster, manifest, owners) == (
        f"node {rank} holds {held[rank] + (1 if rank == first else -1)} "
        f"output records, expected {held[rank]} under PDM striping")


def test_stream_keeps_the_order_of_precedence(small_chunks):
    """An unsorted pair in the last chunk outranks a wrong key and a lost
    payload in the first, as when the whole file was checked at once;
    with the pair repaired the wrong key outranks the lost payload."""
    cluster, manifest, striped, owners, _, keys = stream_case(
        "inside the first chunk")
    poke_global(striped, 3, SCHEMA.from_keys(keys[[4]]))
    flip_payload_byte(striped, 20)
    poke_global(striped, 200, SCHEMA.from_keys(keys[[201, 200]]))
    assert failure(cluster, manifest, owners).startswith(
        "output not sorted: key[200]=")
    poke_global(striped, 200, SCHEMA.from_keys(keys[[200, 201]]))
    assert "first mismatch at global position 3:" in failure(
        cluster, manifest, owners)
    poke_global(striped, 3, SCHEMA.from_keys(keys[[3]]))
    assert failure(cluster, manifest, owners).startswith(
        "record at global position 20 lost its payload")


def make_partitioned_output(sizes, seed=5):
    """Node i holds the next ``sizes[i]`` records of the sorted input in
    a local (non-striped) 'output' file; a 0 leaves the file absent."""
    cluster = Cluster(n_nodes=len(sizes), hardware=HardwareModel())
    manifest = generate_input(cluster, SCHEMA, sum(sizes) // len(sizes),
                              "uniform", seed=seed)
    records = SCHEMA.from_keys(manifest.sorted_keys)
    files = [RecordFile(node.disk, "output", SCHEMA)
             for node in cluster.nodes]
    start = 0
    for rf, size in zip(files, sizes):
        if size:
            rf.poke(0, records[start:start + size])
        start += size
    return cluster, manifest, files


def partitioned_failure(cluster, manifest):
    with pytest.raises(VerificationError) as exc_info:
        verify_partitioned_output(cluster, manifest, "output")
    return str(exc_info.value)


def test_partitioned_verifier_with_an_empty_middle_partition():
    """Each node's file against its slice of the sorted keys — the same
    diagnoses, in the same order of precedence, as when every file was
    concatenated first."""
    sizes = [40, 0, 50]
    cluster, manifest, files = make_partitioned_output(sizes)
    keys = manifest.sorted_keys
    verify_partitioned_output(cluster, manifest, "output")

    # wrong multiset on the last node (still sorted): repeat a successor
    files[2].poke(7, SCHEMA.from_keys(keys[[48]]))
    multiset = "concatenated local outputs are not the sorted input multiset"
    assert partitioned_failure(cluster, manifest) == multiset
    # ... outranked by a wrong count (node 0 loses its last record)
    files[0].disk.storage.truncate("output", 39 * SCHEMA.record_bytes)
    assert partitioned_failure(cluster, manifest) == (
        "output has 89 records, expected 90")
    # ... outranked by any unsorted file, however late it is read
    files[2].poke(20, SCHEMA.from_keys(keys[[61, 60]]))
    assert partitioned_failure(cluster, manifest) == (
        f"node 2 output not sorted: key[20]={keys[61]} > "
        f"key[21]={keys[60]}")


def test_partitioned_verifier_checks_order_between_adjacent_nodes_only():
    """Across an empty partition the order check has no adjacent pair to
    compare (as before); the multiset comparison still catches it."""
    cluster, manifest, files = make_partitioned_output([30, 30, 30])
    keys = manifest.sorted_keys
    files[1].poke(0, SCHEMA.from_keys(keys[[5]]))
    assert partitioned_failure(cluster, manifest) == (
        f"partition order violated between nodes 0 and 1: "
        f"{keys[29]} > {keys[5]}")
    cluster, manifest, files = make_partitioned_output([40, 0, 50])
    keys = manifest.sorted_keys
    files[2].poke(0, SCHEMA.from_keys(keys[[5]]))
    assert partitioned_failure(cluster, manifest) == (
        "concatenated local outputs are not the sorted input multiset")
