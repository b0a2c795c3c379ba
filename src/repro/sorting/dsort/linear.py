"""dsort restricted to single linear pipelines: the Section-VIII ablation.

The paper closes by asking "how much faster dsort runs with multiple
pipelines on each node compared with an implementation restricted to
single, linear pipelines", noting that such a design "entails extensive
bookkeeping on the programmer's part for stages that perform interprocessor
communication, as well as the merge stage".  This module is that
implementation, so the benchmark can answer the question:

* pass 1 is ONE pipeline: ``read -> permute -> exchange -> sort -> write``.
  The exchange stage must both send and receive; since a linear stage
  conveys exactly one buffer per buffer accepted, it hoards received
  records in an internal overflow list (the bookkeeping), drains the
  network opportunistically with ``iprobe`` to avoid deadlock, and the
  read stage keeps feeding it empty "drain" buffers after the input ends;

* pass 2 is ONE pipeline: ``merge -> exchange -> write``.  With no
  vertical pipelines, the merge stage performs *synchronous* disk reads
  for every run block — no read-ahead overlap — which is exactly the cost
  the multiple-pipeline design avoids.

Output and semantics are identical to the real dsort (same splitters,
same runs, same striped output), so any timing difference is attributable
to pipeline structure alone.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import striped_share
from repro.sim import Flag
from repro.sorting.dsort.dsort import DsortConfig, DsortReport
from repro.sorting.dsort.pass1 import splitter_partition
from repro.sorting.dsort.sampling import select_splitters
from repro.sorting.merge import BlockMerger
from repro.sorting.stages import (
    EndMarkers,
    permute_stage,
    run_pass,
    scatter,
    sort_stage,
    write_run_stage,
    write_striped_stage,
)

__all__ = ["run_dsort_linear"]

TAG_L1 = 21
TAG_L2 = 22


def _build_linear_pass1(prog: FGProgram, node: Node, comm: Comm,
                        schema: RecordSchema, splitters, input_file: str,
                        run_prefix: str, block_records: int, nbuffers: int,
                        state: dict) -> None:
    P = comm.size
    rec_bytes = schema.record_bytes
    item = schema.item  # records are copied as opaque items
    rf_in = RecordFile(node.disk, input_file, schema)
    n_local = rf_in.n_records
    n_blocks = math.ceil(n_local / block_records)
    state.setdefault("runs", [])
    state.setdefault("next_run", 0)
    # set by exchange once every record has arrived: a one-shot, not a
    # shared bool, so read's poll is ordered after exchange's last receive
    exchange_done = Flag(node.kernel)

    def read(ctx):
        pipeline = ctx.pipelines[0]
        for block in range(n_blocks):
            buf = ctx.accept()
            start = block * block_records
            count = min(block_records, n_local - start)
            rf_in.read_into(start, buf.fill(schema.dtype, count))
            buf.tags["start"] = start
            ctx.convey(buf)
        # keep the exchange stage fed with drain buffers until it reports
        # completion — part of the "extensive bookkeeping"
        while not exchange_done.is_set():
            buf = ctx.accept()
            buf.clear()
            buf.tags["drain"] = True
            ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    def exchange(ctx):
        overflow: deque = deque()
        markers = EndMarkers(comm, schema, TAG_L1)
        ends = 0
        blocks_sent = 0
        if n_blocks == 0:
            # no local input: our end markers are due immediately
            markers.send()

        def drain_nonblocking():
            nonlocal ends
            while comm.iprobe(tag=TAG_L1):
                _, payload = comm.recv(tag=TAG_L1)
                if len(payload) == 0:
                    ends += 1
                else:
                    overflow.append(payload)

        def pop_records(limit):
            parts = []
            have = 0
            while overflow and have < limit:
                chunk = overflow.popleft()
                if have + len(chunk) > limit:
                    take = limit - have
                    parts.append(chunk[:take])
                    overflow.appendleft(chunk[take:])
                    have = limit
                else:
                    parts.append(chunk)
                    have += len(chunk)
            if not parts:
                return schema.empty(0)
            return (np.concatenate([p.view(item) for p in parts])
                    .view(schema.dtype) if len(parts) > 1 else parts[0])

        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            if not buf.tags.get("drain"):
                scatter(comm, schema, buf.view(schema.dtype),
                        buf.tags["counts"], TAG_L1)
                blocks_sent += 1
                if blocks_sent == n_blocks:
                    markers.send()
                drain_nonblocking()
            else:
                # our sends are complete; safe to block for the rest
                if ends < P and not overflow:
                    _, payload = comm.recv(tag=TAG_L1)
                    if len(payload) == 0:
                        ends += 1
                    else:
                        overflow.append(payload)
                drain_nonblocking()
            out = pop_records(block_records)
            buf.clear()
            if len(out):
                node.compute_copy(out.nbytes)
                buf.put(out)
            if ends == P and not overflow:
                exchange_done.set()
            ctx.convey(buf)

    prog.add_pipeline(
        "linear1",
        [Stage.source_driven("read", read),
         permute_stage(node, schema, P, splitter_partition(comm, splitters)),
         Stage.source_driven("exchange", exchange),
         sort_stage(node, schema),
         write_run_stage(node, schema, run_prefix, state)],
        nbuffers=nbuffers, buffer_bytes=block_records * rec_bytes,
        rounds=None)


def _build_linear_pass2(prog: FGProgram, node: Node, comm: Comm,
                        schema: RecordSchema, runs, start_global: int,
                        output_file: str, vertical_block_records: int,
                        out_block_records: int, nbuffers: int) -> None:
    P = comm.size
    rec_bytes = schema.record_bytes
    vB = vertical_block_records
    outB = out_block_records
    merge_done = Flag(node.kernel)  # set by exchange, as in pass 1

    run_files = [(RecordFile(node.disk, name, schema), n)
                 for name, n in runs]

    def merge(ctx):
        """Merge with synchronous per-run reads (no prefetch overlap)."""
        pipeline = ctx.pipelines[0]
        merger = BlockMerger(schema, range(len(run_files)))
        consumed = [0] * len(run_files)

        def refill():
            for i in sorted(merger.needs()):
                run_file, n_run = run_files[i]
                if consumed[i] >= n_run:
                    merger.finish_run(i)
                    continue
                count = min(vB, n_run - consumed[i])
                merger.feed(i, run_file.read(consumed[i], count))
                consumed[i] += count

        refill()
        emitted = 0
        while not merger.exhausted:
            buf = ctx.accept()
            position = start_global + emitted
            block = position // outB
            offset = position % outB
            target = outB - offset
            out_records = buf.data[:target * rec_bytes].view(schema.dtype)
            filled = 0
            while filled < target and not merger.exhausted:
                if not merger.ready:
                    refill()
                    continue
                n = merger.merge_into(out_records, filled, target - filled)
                node.compute_merge(n)
                filled += n
            if filled == 0:
                # runs finished during the final refill: repurpose the
                # accepted buffer as the first drain buffer
                buf.clear()
                buf.tags["drain"] = True
                ctx.convey(buf)
                break
            buf.size = filled * rec_bytes
            buf.tags["global_block"] = block
            buf.tags["offset"] = offset
            ctx.convey(buf)
            emitted += filled
        # keep feeding drain buffers so the exchange stage can finish;
        # exchange sets merge_done once all P end markers are in and its
        # overflow is drained (our own end marker gates it, so this flag
        # cannot flip before we reach this point)
        while not merge_done.is_set():
            buf = ctx.accept()
            buf.clear()
            buf.tags["drain"] = True
            ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    def exchange(ctx):
        ends = 0
        sent_ends = False
        markers = EndMarkers(comm, schema, TAG_L2)
        overflow: deque = deque()

        def drain_nonblocking():
            nonlocal ends
            while comm.iprobe(tag=TAG_L2):
                msg = comm.recv_msg(tag=TAG_L2)
                if len(msg.payload) == 0:
                    ends += 1
                else:
                    overflow.append(msg)

        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            if not buf.tags.get("drain"):
                records = buf.view(schema.dtype)
                block = buf.tags["global_block"]
                comm.send(block % P,
                          records.view(schema.item).copy().view(schema.dtype),
                          tag=TAG_L2,
                          meta={"global_block": block,
                                "offset": buf.tags["offset"]})
                drain_nonblocking()
            else:
                if not sent_ends:
                    markers.send()
                    sent_ends = True
                if ends < P and not overflow:
                    msg = comm.recv_msg(tag=TAG_L2)
                    if len(msg.payload) == 0:
                        ends += 1
                    else:
                        overflow.append(msg)
                drain_nonblocking()
            buf.clear()
            if overflow:
                msg = overflow.popleft()
                node.compute_copy(msg.payload.nbytes)
                buf.put(msg.payload)
                buf.tags.update(msg.meta)
            if ends == P and not overflow:
                merge_done.set()
            ctx.convey(buf)

    prog.add_pipeline(
        "linear2",
        [Stage.source_driven("merge", merge),
         Stage.source_driven("exchange", exchange),
         write_striped_stage(node, schema, output_file, outB, P)],
        nbuffers=nbuffers, buffer_bytes=outB * rec_bytes, rounds=None)


def run_dsort_linear(node: Node, comm: Comm, schema: RecordSchema,
                     config: Optional[DsortConfig] = None) -> DsortReport:
    """dsort with single linear pipelines per node per pass (SPMD main)."""
    if config is None:
        config = DsortConfig()
    if config.sort_replicas > 1:
        # the sort stage sits behind the stateful exchange stage;
        # replicating inside the ablation would change what "linear vs
        # multi" measures
        raise SortError(
            "dsort-linear does not support sort_replicas > 1 (got "
            f"{config.sort_replicas}): its pipelines are the single-linear "
            "ablation")
    kernel = node.kernel

    comm.barrier()
    t0 = kernel.now()
    splitters = select_splitters(node, comm, schema, config.input_file,
                                 oversample=config.oversample,
                                 seed=config.seed)
    comm.barrier()
    t1 = kernel.now()

    state: dict = {}
    t2 = run_pass(
        node, comm, f"dsortL-p1@{comm.rank}",
        lambda prog: _build_linear_pass1(
            prog, node, comm, schema, splitters,
            input_file=config.input_file, run_prefix=config.run_prefix,
            block_records=config.block_records, nbuffers=config.nbuffers,
            state=state))

    runs = state.get("runs", [])
    local_total = sum(n for _, n in runs)
    totals = comm.allgather(local_total)
    start_global = sum(totals[:comm.rank])
    my_records = striped_share(sum(totals), config.out_block_records,
                               comm.size, comm.rank)
    RecordFile(node.disk, config.output_file, schema).delete()
    node.disk.storage.truncate(config.output_file,
                               my_records * schema.record_bytes)
    t3 = run_pass(
        node, comm, f"dsortL-p2@{comm.rank}",
        lambda prog: _build_linear_pass2(
            prog, node, comm, schema, runs, start_global,
            output_file=config.output_file,
            vertical_block_records=config.vertical_block_records,
            out_block_records=config.out_block_records,
            nbuffers=config.nbuffers))

    for run_name, _ in runs:
        node.disk.delete(run_name)

    return DsortReport(rank=comm.rank, sampling_time=t1 - t0,
                       pass1_time=t2 - t1, pass2_time=t3 - t2,
                       partition_records=local_total, n_runs=len(runs))
