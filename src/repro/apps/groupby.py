"""Distribution-based out-of-core aggregation (a Section-VIII application).

Group-by-key with summation over a dataset too large for memory: the
other classic distribution-based computation.  The structure deliberately
reuses both of dsort's pipeline regimes:

* **pass 1** — disjoint send/receive pipelines: read local (key, value)
  records, route each record to ``hash(key) mod P``, and on the receive
  side *pre-aggregate* each buffer (combine equal keys) before sorting
  and writing it as a run — so heavy-hitter keys shrink immediately;
* **pass 2** — virtual vertical pipelines intersecting a combining merge
  stage: the k-way merge emits each distinct key once with the sum of all
  its values, writing the node-local aggregate file.

Every key hashes to exactly one node, so no cross-node combining is
needed; the concatenation of per-node outputs is the full group-by
result (keys sorted within a node).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.stages import (
    EndMarkers,
    RunMerge,
    add_run_readers,
    group_by_partition,
    packing_receive_stage,
    run_pass,
    scatter,
    write_run_stage,
)

__all__ = ["KeyValueSchema", "GroupByReport", "run_groupby",
           "GroupByConfig"]

TAG_GROUPBY = 51


class KeyValueSchema(RecordSchema):
    """16-byte records of (key: u64, value: u64)."""

    def __init__(self) -> None:
        super().__init__(16)
        self.dtype = np.dtype([("key", "<u8"), ("value", "<u8")])

    def make(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        records = np.zeros(len(keys), dtype=self.dtype)
        records["key"] = keys
        records["value"] = values
        return records


def combine_sorted(records: np.ndarray) -> np.ndarray:
    """Collapse a key-sorted record array: one row per key, values summed
    (wrapping uint64 arithmetic, like an accumulator register would)."""
    if len(records) == 0:
        return records
    keys = records["key"]
    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    starts = np.nonzero(boundaries)[0]
    sums = np.add.reduceat(records["value"], starts)
    out = np.zeros(len(starts), dtype=records.dtype)
    out["key"] = keys[starts]
    out["value"] = sums
    return out


def _hash_keys(keys: np.ndarray, buckets: int) -> np.ndarray:
    """Cheap vectorized 64-bit mix, then mod buckets."""
    mixed = keys * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(buckets)).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class GroupByConfig:
    block_records: int = 2048
    vertical_block_records: int = 512
    out_block_records: int = 2048
    nbuffers: int = 4
    input_file: str = "kv-input"
    output_file: str = "kv-groups"
    run_prefix: str = "groupby-run"
    #: prefix for FGProgram names; the multi-tenant scheduler sets a
    #: per-job prefix so concurrent jobs stay distinguishable
    name_prefix: str = "groupby"

    def __post_init__(self):
        for field in ("block_records", "vertical_block_records",
                      "out_block_records", "nbuffers"):
            if getattr(self, field) < 1:
                raise SortError(f"{field} must be >= 1")


@dataclasses.dataclass
class GroupByReport:
    rank: int
    pass1_time: float
    pass2_time: float
    input_records: int
    distinct_keys: int

    @property
    def total_time(self) -> float:
        return self.pass1_time + self.pass2_time


def run_groupby(node: Node, comm: Comm,
                config: Optional[GroupByConfig] = None) -> GroupByReport:
    """SPMD main: aggregate ``kv-input`` into sorted ``kv-groups``."""
    if config is None:
        config = GroupByConfig()
    schema = KeyValueSchema()
    P = comm.size
    B = config.block_records
    rec_bytes = schema.record_bytes
    rf_in = RecordFile(node.disk, config.input_file, schema)
    n_local = rf_in.n_records
    state: dict = {"runs": [], "next_run": 0}

    comm.barrier()
    t0 = node.kernel.now()

    # -- pass 1: hash-partition + pre-aggregate into sorted runs ------------

    def read(ctx, buf):
        start = buf.round * B
        rf_in.read_into(start,
                        buf.fill(schema.dtype, min(B, n_local - start)))
        return buf

    markers = EndMarkers(comm, schema, TAG_GROUPBY)

    def route(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                break
            records = buf.view(schema.dtype)
            routed, counts = group_by_partition(
                node, records, _hash_keys(records["key"], P), P)
            scatter(comm, schema, routed, counts, TAG_GROUPBY)
            ctx.convey(buf)
        markers.send()
        state["ends_sent"] = True
        ctx.forward(buf)

    def sort_and_combine(ctx, buf):
        records = buf.view(schema.dtype)
        node.compute_sort(len(records))
        combined = combine_sorted(schema.sort(records))
        node.compute_copy(combined.nbytes)
        buf.put(combined)
        return buf

    def build_pass1(prog: FGProgram) -> None:
        prog.on_pipeline_failure = markers.on_failure("route", state,
                                                      "ends_sent")
        prog.add_pipeline(
            "send", [Stage.map("read", read),
                     Stage.source_driven("route", route)],
            nbuffers=config.nbuffers, buffer_bytes=B * rec_bytes,
            rounds=math.ceil(n_local / B))
        prog.add_pipeline(
            "recv", [packing_receive_stage(node, comm, schema, TAG_GROUPBY,
                                           B),
                     Stage.map("combine", sort_and_combine),
                     write_run_stage(node, schema, config.run_prefix,
                                     state)],
            nbuffers=config.nbuffers, buffer_bytes=B * rec_bytes,
            rounds=None)

    t1 = run_pass(node, comm, f"{config.name_prefix}-p1@{comm.rank}",
                  build_pass1)

    # -- pass 2: combining k-way merge of the runs ----------------------------

    runs = state["runs"]
    outB = config.out_block_records
    out_file = RecordFile(node.disk, config.output_file, schema)
    out_file.delete()
    distinct = {"count": 0}

    def write_out(ctx, buf):
        records = buf.view(schema.dtype)
        out_file.write(buf.tags["start"], records)
        distinct["count"] += len(records)
        return buf

    def build_pass2(prog: FGProgram) -> None:
        merge_stage = Stage.source_driven("merge", None)
        verticals = add_run_readers(
            prog, node, schema, [(name, 0, n) for name, n in runs],
            merge_stage, config.vertical_block_records)
        horizontal = prog.add_pipeline(
            "out", [merge_stage, Stage.map("write", write_out)],
            nbuffers=config.nbuffers, buffer_bytes=(outB + 1) * rec_bytes,
            rounds=None)

        def merge(ctx):
            merging = RunMerge(ctx, node, schema, verticals)
            merger = merging.merger
            emitted = 0
            carry = None  # last combined record; next chunk may extend it
            # the buffer is taken before the merge is asked for a record:
            # safe here (and only here) because a pending carry always
            # has a record to put into it
            while not merger.exhausted or carry is not None:
                out = merging.take(horizontal)
                records = out.data.view(schema.dtype)
                filled = 0
                if carry is not None:
                    records[0] = carry
                    filled = 1
                    carry = None
                while filled <= outB:
                    n = merging.merge_some(records, filled,
                                           outB + 1 - filled)
                    if n == 0:
                        break
                    combined = combine_sorted(records[:filled + n])
                    node.compute_copy((filled + n) * rec_bytes)
                    records[:len(combined)] = combined
                    filled = len(combined)
                # hold back the last record: the next merged chunk may
                # carry more values of the same key
                if not merger.exhausted and filled > 0:
                    carry = records[filled - 1].copy()
                    filled -= 1
                if filled:
                    out.size = filled * rec_bytes
                    out.tags["start"] = emitted
                    ctx.convey(out)
                    emitted += filled
            ctx.convey_caboose(horizontal)

        merge_stage.fn = merge

    t2 = run_pass(node, comm, f"{config.name_prefix}-p2@{comm.rank}",
                  build_pass2)

    for run_name, _ in runs:
        node.disk.delete(run_name)

    return GroupByReport(rank=comm.rank, pass1_time=t1 - t0,
                         pass2_time=t2 - t1, input_records=n_local,
                         distinct_keys=distinct["count"])
