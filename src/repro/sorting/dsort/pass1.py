"""dsort pass 1: partitioning and distribution (paper, Figure 6).

Each node runs two disjoint FG pipelines:

* **send pipeline** (``read -> permute -> send``, rounds known): reads a
  block of the local input, rearranges it so records of the same partition
  are contiguous (using splitters + extended keys), and doles each
  partition's records out to its target node;
* **receive pipeline** (``receive -> sort -> write``, rounds unknown):
  packs incoming records into pipeline buffers, sorts each full buffer,
  and writes it to disk — each written buffer is one **sorted run**.

The two pipelines progress at different rates because the number of
records a node sends almost never equals the number it receives — the
unbalanced communication that motivated FG's disjoint-pipeline extension.

End-of-stream: after its caboose, every send stage sends one empty message
to every node; a receive stage that has collected all P end markers (and
drained leftovers) conveys its own caboose.

Failure compensation: if the send stage itself dies, peers would wait
forever for this node's end markers, so the program's failure hook sends
them on the dead stage's behalf (``state['p1_ends_sent']`` guards against
double-sending).  A receive stage that accepts a caboose — its pipeline
was poisoned by a downstream failure — forwards it and bows out.

The stages themselves (``permute``, ``receive``, ``sort``, ``write``, the
per-destination dole-out) come from :mod:`repro.sorting.stages`; what is
written here is the wiring, and what recovery weaves into its variant.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.dsort.sampling import Splitters, partition_ids
from repro.sorting.stages import (
    EndMarkers,
    packing_receive_stage,
    partition_slices,
    permute_stage,
    scatter,
    sort_stage,
    write_run_stage,
)

__all__ = ["build_pass1", "build_pass1_recover", "TAG_PASS1"]

#: message tag for pass-1 record traffic (empty payload = end marker)
TAG_PASS1 = 11


def build_pass1(prog: FGProgram, node: Node, comm: Comm,
                schema: RecordSchema, splitters: Splitters,
                input_file: str, run_prefix: str,
                block_records: int, nbuffers: int,
                state: dict, sort_replicas: int = 1) -> None:
    """Add pass-1's send and receive pipelines to ``prog``.

    ``state`` collects per-node results: ``state['runs']`` becomes the
    list of ``(file name, record count)`` sorted runs written locally.
    ``sort_replicas`` runs that many interchangeable copies of the
    receive pipeline's sort stage (it is stateless, so it is the one
    pass-1 stage eligible for replication; ``write`` appends to the
    shared run list and must stay single).
    """
    P = comm.size
    rec_bytes = schema.record_bytes
    rf_in = RecordFile(node.disk, input_file, schema)
    n_local = rf_in.n_records
    n_blocks = math.ceil(n_local / block_records)
    state.setdefault("runs", [])
    state.setdefault("next_run", 0)

    # -- send pipeline ----------------------------------------------------

    def read(ctx, buf):
        start = buf.round * block_records
        count = min(block_records, n_local - start)
        rf_in.read_into(start, buf.fill(schema.dtype, count))
        buf.tags["start"] = start
        return buf

    markers = EndMarkers(comm, schema, TAG_PASS1)

    def send(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                break
            scatter(comm, schema, buf.view(schema.dtype),
                    buf.tags["counts"], TAG_PASS1)
            ctx.convey(buf)
        markers.send()
        state["p1_ends_sent"] = True
        ctx.forward(buf)

    prog.on_pipeline_failure = markers.on_failure("send", state,
                                                  "p1_ends_sent")

    prog.add_pipeline(
        "send",
        [Stage.map("read", read),
         permute_stage(node, schema, P, splitter_partition(comm, splitters)),
         Stage.source_driven("send", send)],
        nbuffers=nbuffers, buffer_bytes=block_records * rec_bytes,
        rounds=n_blocks, aux_buffers=True)

    # -- receive pipeline ---------------------------------------------------------

    prog.add_pipeline(
        "recv",
        [packing_receive_stage(node, comm, schema, TAG_PASS1, block_records),
         sort_stage(node, schema),
         write_run_stage(node, schema, run_prefix, state)],
        nbuffers=nbuffers, buffer_bytes=block_records * rec_bytes,
        rounds=None, aux_buffers=True,
        replicas={"sort": sort_replicas} if sort_replicas > 1 else None)


def splitter_partition(comm: Comm, splitters: Splitters):
    """``partition_of(keys, positions)`` for blocks of this rank's input,
    by extended-key comparison against ``splitters``."""
    def partition_of(keys, positions):
        return partition_ids(keys, comm.rank, positions, splitters)
    return partition_of


def build_pass1_recover(prog: FGProgram, node: Node, comm: Comm,
                        schema: RecordSchema, splitters: Splitters, *,
                        input_file: str, run_prefix: str,
                        block_records: int, nbuffers: int, state: dict,
                        manager, journal, sendlog,
                        skip_blocks: frozenset, sent_logged: set,
                        durable_own: set,
                        sort_replicas: int = 1) -> None:
    """The checkpointing variant of :func:`build_pass1`.

    Structurally the same two pipelines, with the recovery manager's
    block-level bookkeeping woven in:

    * every data message carries its source input block in metadata and
      every end marker names its logical producer, so a retried attempt
      can deduplicate re-sent fragments against the ``(src, block)``
      pairs its journal proved durable;
    * the send stage skips fragments every destination already holds
      durably (and destinations that are dead), and logs fully-sent
      blocks to ``sendlog`` so a retried read stage can skip re-reading
      them from disk entirely (``skip_blocks``);
    * the write stage optionally replicates each run onto the buddy
      node's disk (``RecoverPolicy.backup_runs`` — a remote-DMA-style
      write charged to the buddy's arm), then journals the run and its
      fragments write-ahead: a run is only ever *re-received* if the
      crash beat its journal entry, and then the deduplication above
      makes the retry exactly-once.

    Journal appends are batched ``RecoverPolicy.journal_every`` units
    per entry; the receive stage conveys a final (possibly empty)
    ``last``-tagged buffer so the write stage can flush its tail batch.
    """
    P = comm.size
    policy = manager.policy
    rec_bytes = schema.record_bytes
    item = schema.item  # records are copied as opaque items
    rf_in = RecordFile(node.disk, input_file, schema)
    n_local = rf_in.n_records
    n_blocks = math.ceil(n_local / block_records)
    state.setdefault("runs", [])
    state.setdefault("next_run", 0)
    rank = comm.rank
    buddy = manager.buddy(rank)
    backup_disk = (manager.cluster.nodes[buddy].disk
                   if policy.backup_runs and buddy != rank else None)

    # -- send pipeline ----------------------------------------------------

    def read(ctx, buf):
        b = buf.round
        buf.tags["block"] = b
        if b in skip_blocks:
            # every fragment of this block is durable at its destination
            # (journal-proven); skip the disk read, the permute, and the
            # sends — this is the checkpoint's pass-1 saving
            buf.put(schema.empty(0))
            buf.tags["skip"] = True
            return buf
        start = b * block_records
        count = min(block_records, n_local - start)
        rf_in.read_into(start, buf.fill(schema.dtype, count))
        buf.tags["start"] = start
        return buf

    markers = EndMarkers(comm, schema, TAG_PASS1, producer=f"p{rank}",
                         skip=manager.is_dead)

    def send(ctx):
        pending: list = []
        logged = set(sent_logged)
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                break
            if buf.tags.get("skip"):
                ctx.convey(buf)
                continue
            b = buf.tags["block"]
            dsts = []
            for dest, part in partition_slices(buf.view(schema.dtype),
                                               buf.tags["counts"]):
                dsts.append(dest)
                if (manager.is_dead(dest)
                        or (rank, b) in manager.durable_frags(dest)):
                    continue  # durable there already, or nobody home
                comm.send(dest, part.view(item).copy().view(schema.dtype),
                          tag=TAG_PASS1, meta={"block": b})
            if sendlog is not None and b not in logged:
                logged.add(b)
                pending.append([b, dsts])
                if len(pending) >= policy.journal_every:
                    sendlog.append({"blocks": pending})
                    pending = []
            ctx.convey(buf)
        if pending:
            sendlog.append({"blocks": pending})
        markers.send()
        state["p1_ends_sent"] = True
        ctx.forward(buf)

    prog.on_pipeline_failure = markers.on_failure("send", state,
                                                  "p1_ends_sent")

    prog.add_pipeline(
        "send",
        [Stage.map("read", read),
         permute_stage(node, schema, P, splitter_partition(comm, splitters)),
         Stage.source_driven("send", send)],
        nbuffers=nbuffers, buffer_bytes=block_records * rec_bytes,
        rounds=n_blocks, aux_buffers=True)

    # -- receive pipeline ---------------------------------------------------

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        expected = {f"p{r}" for r in range(P)}
        ends: set = set()
        seen = set(durable_own)
        parts: list = []  # [(key, records)] whole fragments, never split
        have = 0

        def flush(last: bool) -> bool:
            """Pack pending fragments into one buffer; False = poisoned."""
            nonlocal parts, have
            if not parts and not last:
                return True
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return False
            payloads = [p.view(item) for _, p in parts]
            records = (np.concatenate(payloads) if len(payloads) > 1
                       else payloads[0] if payloads else schema.empty(0))
            node.compute_copy(len(records) * rec_bytes)
            buf.put(records)
            buf.tags["frags"] = [key for key, _ in parts]
            if last:
                buf.tags["last"] = True
            ctx.convey(buf)
            parts = []
            have = 0
            return True

        while not expected <= ends:
            msg = comm.recv_msg(tag=TAG_PASS1)
            meta = msg.meta or {}
            if len(msg.payload) == 0:
                ends.add(meta.get("producer", f"p{msg.src}"))
                continue
            key = (msg.src, meta["block"])
            if key in seen:
                continue  # journal-proven durable, or a re-sent duplicate
            seen.add(key)
            if have + len(msg.payload) > block_records:
                if not flush(last=False):
                    return
            parts.append((key, msg.payload))
            have += len(msg.payload)
        # the final buffer is tagged so the write stage can flush its
        # batched journal tail; conveyed even when empty
        if not flush(last=True):
            return
        ctx.convey_caboose(pipeline)

    pending_runs: list = []
    pending_bak: list = []

    def write(ctx, buf):
        records = buf.view(schema.dtype)
        if len(records):
            k = state["next_run"]
            state["next_run"] += 1
            run_name = f"{run_prefix}.{k}"
            RecordFile(node.disk, run_name, schema).write(0, records)
            if backup_disk is not None:
                pending_bak.append((k, records.view(item).copy()))
            pending_runs.append({"k": k, "name": run_name,
                                 "n": len(records), "bak": None,
                                 "frags": [[int(s), int(b)]
                                           for s, b in buf.tags["frags"]]})
            state["runs"].append((run_name, len(records)))
        if pending_runs and (len(pending_runs) >= policy.journal_every
                             or buf.tags.get("last")):
            if pending_bak:
                # replicate the batch onto the buddy's disk as ONE
                # segment file — one seek per batch, not one per run —
                # before the journal admits any of these runs exists.
                # A stale segment of the same name from a failed
                # attempt may be longer, so truncate first.
                seg = f"{run_prefix}.bakseg{rank}.{pending_bak[0][0]}"
                backup_disk.storage.truncate(seg, 0)
                RecordFile(backup_disk, seg, schema).write(
                    0, np.concatenate([r for _, r in pending_bak]))
                start = 0
                offsets = {}
                for k, recs in pending_bak:
                    offsets[k] = start
                    start += len(recs)
                for entry in pending_runs:
                    if entry["k"] in offsets:
                        entry["bak"] = [seg, offsets[entry["k"]]]
                pending_bak.clear()
            if journal is not None:
                journal.append({"runs": list(pending_runs)})
            for entry in pending_runs:
                if entry["bak"] is not None:
                    manager.publish_backup_run(rank, entry["k"],
                                               entry["bak"][0],
                                               entry["bak"][1], entry["n"])
            pending_runs.clear()
        return buf

    prog.add_pipeline(
        "recv",
        [Stage.source_driven("receive", receive), sort_stage(node, schema),
         Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=block_records * rec_bytes,
        rounds=None, aux_buffers=True,
        replicas={"sort": sort_replicas} if sort_replicas > 1 else None)
