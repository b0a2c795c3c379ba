"""Property tests for the PDM striped-file layer."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, HardwareModel
from repro.pdm import striped as striped_module
from repro.pdm.records import RecordSchema
from repro.pdm.striped import StripedFile, striped_share

SCHEMA = RecordSchema(8)


def make_striped(n_nodes, block_records):
    cluster = Cluster(n_nodes=n_nodes, hardware=HardwareModel(
        disk_bandwidth=1e12, disk_seek=0.0))
    return cluster, StripedFile(cluster, "f", SCHEMA, block_records)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5),     # nodes
       st.integers(min_value=1, max_value=7),     # block size
       st.integers(min_value=1, max_value=120))   # total records
def test_property_block_writes_reassemble_global_order(n_nodes, block,
                                                       total):
    cluster, striped = make_striped(n_nodes, block)
    records = SCHEMA.from_keys(np.arange(total, dtype=np.uint64))

    def main(node, comm):
        n_blocks = -(-total // block)
        for b in range(n_blocks):
            if striped.node_of_block(b) == comm.rank:
                lo, hi = b * block, min((b + 1) * block, total)
                striped.write_block(b, records[lo:hi])

    cluster.run(main)
    out = striped.read_all()
    np.testing.assert_array_equal(out["key"],
                                  np.arange(total, dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=300))
def test_property_striped_share_counts_the_owners_blocks(width, block,
                                                         total):
    """The closed form against the block-by-block walk it replaced (the
    sorters used to size their outputs with this loop)."""
    for position in range(width):
        walked = sum(min(block, total - b * block)
                     for b in range(position, -(-total // block), width))
        assert striped_share(total, block, width, position) == walked
    assert sum(striped_share(total, block, width, k)
               for k in range(width)) == total


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=300))
def test_property_locate_is_consistent_with_geometry(n_nodes, block,
                                                     position):
    _, striped = make_striped(n_nodes, block)
    node, local = striped.locate(position)
    gb = position // block
    assert node == gb % n_nodes
    assert local == (gb // n_nodes) * block + position % block
    # locate is injective per node: positions in one block map to
    # consecutive local indices
    if position % block < block - 1:
        node2, local2 = striped.locate(position + 1)
        if (position + 1) // block == gb:
            assert node2 == node and local2 == local + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=6),
       st.data())
def test_property_partial_writes_compose(n_nodes, block, data):
    """Writing a block in arbitrary (offset, length) pieces equals one
    whole-block write."""
    cluster, striped = make_striped(n_nodes, block)
    keys = data.draw(st.lists(
        st.integers(min_value=0, max_value=2**32), min_size=block,
        max_size=block))
    records = SCHEMA.from_keys(np.array(keys, dtype=np.uint64))
    # random partition of [0, block) into contiguous pieces
    n_cuts = data.draw(st.integers(min_value=0, max_value=block - 1))
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=1, max_value=block - 1),
        min_size=n_cuts, max_size=n_cuts, unique=True)))
    bounds = [0] + cuts + [block]

    def main(node, comm):
        if comm.rank == striped.node_of_block(0):
            for lo, hi in zip(bounds, bounds[1:]):
                striped.write_block(0, records[lo:hi], offset_records=lo)

    cluster.run(main)
    np.testing.assert_array_equal(
        striped.locals[striped.node_of_block(0)].peek(0, block), records)


def read_all_block_by_block(striped):
    """The reference: one ``peek`` per global block, in order (how
    ``read_all`` was written before it read each owner's file once)."""
    total = striped.total_records()
    out = striped.schema.empty(total)
    pos = block = 0
    while pos < total:
        node = striped.node_of_block(block)
        local = striped.local_block(block) * striped.block_records
        count = min(striped.block_records, total - pos)
        out[pos:pos + count] = striped.locals[node].peek(local, count)
        pos += count
        block += 1
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5),     # nodes
       st.integers(min_value=1, max_value=7),     # block size
       st.integers(min_value=0, max_value=120),   # total records
       st.data())
def test_property_read_all_equals_the_per_block_reference(n_nodes, block,
                                                          total, data):
    """Any stripe layout (all ranks, or survivors in any order), whole
    and partial last rounds, empty and absent owner files — and any
    chunk size: the chunks concatenate to ``read_all``, and the chunked
    digest is the digest of the whole."""
    owners = data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=1,
                                max_size=n_nodes, unique=True))
    chunk_bytes = data.draw(st.integers(1, 200 * SCHEMA.record_bytes))
    cluster, _ = make_striped(n_nodes, block)
    striped = StripedFile(cluster, "f", SCHEMA, block, owners=owners)
    records = SCHEMA.from_keys(np.arange(total, dtype=np.uint64))
    for b in range(-(-total // block)):
        striped.locals[striped.node_of_block(b)].poke(
            striped.local_block(b) * block,
            records[b * block:(b + 1) * block])
    out = striped.read_all()
    assert out.dtype == SCHEMA.dtype and out.flags.c_contiguous
    np.testing.assert_array_equal(out, read_all_block_by_block(striped))
    np.testing.assert_array_equal(out, records)
    with mock.patch.object(striped_module, "CHUNK_BYTES", chunk_bytes):
        chunks = list(striped.iter_chunks())
        digest = striped.sha256()
    # no empty chunk; all but the last are whole stripe rounds, one size
    sizes = [len(chunk) for chunk in chunks]
    assert all(sizes) and len(set(sizes[:-1])) <= 1
    assert all(size % (len(owners) * block) == 0 for size in sizes[:-1])
    np.testing.assert_array_equal(
        np.concatenate(chunks) if chunks else SCHEMA.empty(0), out)
    assert digest == hashlib.sha256(out.tobytes()).hexdigest()
