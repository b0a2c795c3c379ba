"""The exchange's per-block kernels against the versions they replaced.

dsort's pass 1 and groupby's route place each record with
:func:`partition_ids`, group a block with :func:`group_by_partition`, and
pack what arrives with :func:`packing_receive_stage`.  Each kernel now
does linear work per block; the straightforward versions they replaced
are kept below as oracles, and every output — partition ids, grouped
bytes, counts, simulated charges, conveyed bytes and the order of every
receive, accept and charge — must equal theirs.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HardwareModel
from repro.core.buffer import Buffer
from repro.pdm.records import RecordSchema
from repro.sorting.dsort.sampling import Splitters, partition_ids
from repro.sorting.stages import group_by_partition, packing_receive_stage

SCHEMA = RecordSchema.paper_16()
HW = HardwareModel()


# -- the oracles ----------------------------------------------------------


def reference_partition_ids(keys, rank, positions, splitters):
    """Two full binary searches (left and right) per key; keys whose
    two slots differ take the extension loop."""
    keys = np.asarray(keys, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.int64)
    base = np.searchsorted(splitters.keys, keys, side="left")
    upper = np.searchsorted(splitters.keys, keys, side="right")
    part = base.astype(np.int64)
    collide = np.nonzero(upper > base)[0]
    if len(collide):
        b = base[collide]
        u = upper[collide]
        pos = positions[collide]
        extra = np.zeros(len(collide), dtype=np.int64)
        for bb, uu in set(zip(b.tolist(), u.tolist())):
            sel = (b == bb) & (u == uu)
            snodes = splitters.nodes[bb:uu]
            sidx = splitters.indices[bb:uu]
            p_sel = pos[sel]
            below = ((snodes[None, :] < rank)
                     | ((snodes[None, :] == rank)
                        & (sidx[None, :] < p_sel[:, None])))
            extra[sel] = below.sum(axis=1)
        part[collide] = b + extra
    return part


def reference_group_by_partition(node, records, part, n_partitions):
    """A stable sort of the ids as they come (int64)."""
    order = np.argsort(np.asarray(part, dtype=np.int64), kind="stable")
    hw = node.hardware
    node.compute(hw.sort_cost_per_key_log * len(records)
                 * max(1.0, math.log2(n_partitions))
                 + hw.copy_time(records.nbytes))
    return records[order], np.bincount(part, minlength=n_partitions)


def reference_packing_receive(node, comm, schema, tag, block_records):
    """Concatenate what is pending, then slice a buffer's worth off."""
    P = comm.size
    rec_bytes = schema.record_bytes

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        ends = 0
        leftover = None
        while True:
            parts = []
            have = 0
            if leftover is not None:
                parts.append(leftover)
                have = len(leftover)
                leftover = None
            while have < block_records and ends < P:
                _, payload = comm.recv(tag=tag)
                if len(payload) == 0:
                    ends += 1
                    continue
                parts.append(payload)
                have += len(payload)
            if have == 0:
                break
            records = np.concatenate(parts) if len(parts) > 1 else parts[0]
            take = min(block_records, len(records))
            leftover = records[take:] if take < len(records) else None
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            node.compute_copy(take * rec_bytes)
            buf.put(records[:take])
            ctx.convey(buf)
            if ends == P and leftover is None:
                break
        ctx.convey_caboose(pipeline)

    return receive


# -- partition_ids ----------------------------------------------------------


@st.composite
def splitters_and_block(draw):
    """Splitters sorted by extended key over a small key range (so keys
    repeat among the splitters and records land on them), and a block of
    this rank's records starting at some input position."""
    n_splitters = draw(st.integers(0, 8))
    n_nodes = draw(st.integers(1, 4))
    key_space = draw(st.integers(1, 12))
    triples = sorted(set(draw(st.lists(
        st.tuples(st.integers(0, key_space), st.integers(0, n_nodes - 1),
                  st.integers(0, 40)),
        min_size=n_splitters, max_size=n_splitters))))
    splitters = Splitters(
        keys=np.array([t[0] for t in triples], dtype=np.uint64),
        nodes=np.array([t[1] for t in triples], dtype=np.int64),
        indices=np.array([t[2] for t in triples], dtype=np.int64))
    keys = np.array(draw(st.lists(st.integers(0, key_space + 1),
                                  max_size=40)), dtype=np.uint64)
    start = draw(st.integers(0, 20))
    positions = np.arange(start, start + len(keys), dtype=np.int64)
    rank = draw(st.integers(0, n_nodes - 1))
    return splitters, keys, rank, positions


@settings(max_examples=300, deadline=None)
@given(splitters_and_block())
def test_property_partition_ids_matches_two_searches(case):
    splitters, keys, rank, positions = case
    part = partition_ids(keys, rank, positions, splitters)
    expect = reference_partition_ids(keys, rank, positions, splitters)
    assert part.dtype == np.int64
    np.testing.assert_array_equal(part, expect)


def test_partition_ids_without_splitters_is_all_zero():
    none = Splitters(keys=np.empty(0, dtype=np.uint64),
                     nodes=np.empty(0, dtype=np.int64),
                     indices=np.empty(0, dtype=np.int64))
    keys = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
    part = partition_ids(keys, 0, np.arange(3), none)
    assert part.dtype == np.int64 and part.tolist() == [0, 0, 0]
    assert len(partition_ids(keys[:0], 0, np.arange(0), none)) == 0


def test_partition_ids_on_every_splitter_of_a_duplicated_key():
    # three splitters share key 7: (7, 0, 3), (7, 1, 0), (7, 1, 9)
    sp = Splitters(keys=np.array([2, 7, 7, 7], dtype=np.uint64),
                   nodes=np.array([0, 0, 1, 1], dtype=np.int64),
                   indices=np.array([0, 3, 0, 9], dtype=np.int64))
    keys = np.full(12, 7, dtype=np.uint64)
    for rank, expect in ((0, [1] * 4 + [2] * 8),
                         (1, [2] + [3] * 9 + [4] * 2)):
        part = partition_ids(keys, rank, np.arange(12), sp)
        assert part.tolist() == expect
    # below and above the last splitter's key, and on the first one
    part = partition_ids(np.array([6, 8, 2], dtype=np.uint64), 1,
                         np.arange(3), sp)
    assert part.tolist() == [1, 4, 1]


# -- group_by_partition -------------------------------------------------------


def charging_node():
    charges = []
    return types.SimpleNamespace(hardware=HW, compute=charges.append), \
        charges


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 256, 257, 65536, 65537]), st.data())
def test_property_group_by_partition_matches_int64_sort(n_partitions, data):
    top = n_partitions - 1
    ids = data.draw(st.lists(
        st.one_of(st.integers(0, top), st.sampled_from([0, top])),
        max_size=300))
    part = np.array(ids, dtype=np.int64)
    records = SCHEMA.from_keys(np.arange(len(part), dtype=np.uint64))
    node, charges = charging_node()
    grouped, counts = group_by_partition(node, records, part, n_partitions)
    ref_node, ref_charges = charging_node()
    expect, expect_counts = reference_group_by_partition(
        ref_node, records, part, n_partitions)
    assert grouped.tobytes() == expect.tobytes()
    np.testing.assert_array_equal(counts, expect_counts)
    assert len(counts) == n_partitions
    assert charges == ref_charges


# -- packing_receive_stage ------------------------------------------------------


class ScriptedExchange:
    """The comm, node and stage context one receive stage sees: ``recv``
    plays ``script`` in order, ``accept`` hands out a pool of real
    buffers (or a caboose at accept number ``poison_at``), and every
    call lands in ``log`` — conveyed buffers as their bytes."""

    def __init__(self, P, script, block_records, poison_at=None):
        self.size = P
        self.script = list(script)
        self.pipelines = ["recv"]
        self.log = []
        self.pool = [Buffer(None, i, block_records * SCHEMA.record_bytes)
                     for i in range(2)]
        self.accepts = 0
        self.poison_at = poison_at

    def recv(self, tag):
        payload = self.script.pop(0)
        self.log.append(("recv", len(payload)))
        return 0, payload

    def compute_copy(self, nbytes):
        self.log.append(("copy", nbytes))

    def accept(self):
        self.accepts += 1
        if self.accepts == self.poison_at:
            return Buffer.caboose(None)
        buf = self.pool.pop(0)
        buf.clear()
        return buf

    def convey(self, buf):
        self.log.append(("convey", buf.data[:buf.size].tobytes()))
        self.pool.append(buf)

    def forward(self, buf):
        self.log.append(("forward",))

    def convey_caboose(self, pipeline):
        self.log.append(("caboose", pipeline))


def library_receive(*args):
    return packing_receive_stage(*args).fn


def packed(make, P, script, block_records, poison_at=None):
    """``(log, script left unread)`` of the receive ``make`` builds."""
    ex = ScriptedExchange(P, script, block_records, poison_at)
    make(ex, ex, SCHEMA, 5, block_records)(ex)
    return ex.log, ex.script


@st.composite
def receive_scripts(draw):
    """P producers' payloads (some longer than two buffers) with one end
    marker each, the last at the end of the script."""
    P = draw(st.integers(1, 4))
    block_records = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 3 * block_records + 2),
                            max_size=10))
    order = draw(st.permutations(lengths + [0] * (P - 1)))  # 0: a marker
    script, key = [], 0
    for n in [*order, 0]:
        script.append(SCHEMA.from_keys(np.arange(key, key + n,
                                                 dtype=np.uint64)))
        key += n
    poison_at = draw(st.none() | st.integers(1, 6))
    return P, script, block_records, poison_at


@settings(max_examples=200, deadline=None)
@given(receive_scripts())
def test_property_packing_receive_matches_concatenate_then_slice(case):
    P, script, block_records, poison_at = case
    log, rest = packed(library_receive, P, script, block_records,
                       poison_at)
    expect, expect_rest = packed(reference_packing_receive, P, script,
                                 block_records, poison_at)
    assert log == expect
    assert len(rest) == len(expect_rest)


def test_packing_receive_splits_a_payload_longer_than_two_buffers():
    block_records = 4
    script = [SCHEMA.from_keys(np.arange(0, 3, dtype=np.uint64)),
              SCHEMA.from_keys(np.arange(3, 14, dtype=np.uint64)),
              SCHEMA.empty(0),
              SCHEMA.from_keys(np.arange(14, 16, dtype=np.uint64)),
              SCHEMA.empty(0)]
    log, rest = packed(library_receive, 2, script, block_records)
    conveyed = [np.frombuffer(e[1], dtype=SCHEMA.dtype)["key"].tolist()
                for e in log if e[0] == "convey"]
    assert conveyed == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11],
                        [12, 13, 14, 15]]
    assert log[-1] == ("caboose", "recv") and rest == []
    assert log == packed(reference_packing_receive, 2, script,
                         block_records)[0]


@pytest.mark.parametrize("P", [1, 3])
def test_packing_receive_of_end_markers_only_conveys_just_the_caboose(P):
    log, rest = packed(library_receive, P, [SCHEMA.empty(0)] * P, 4)
    assert log == [("recv", 0)] * P + [("caboose", "recv")]
