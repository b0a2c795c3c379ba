"""dsort pass 2: merging, load-balancing, and striping (paper, Figure 7).

Per node, four kinds of pipelines cooperate:

* **vertical pipelines**, one per sorted run, whose (virtual) read stages
  feed run blocks into the merge stage — hundreds of runs cost O(1)
  threads thanks to virtual stages;
* the **merge stage**, where the vertical pipelines intersect the
  horizontal one: it fills large, stripe-block-aligned output buffers by
  k-way merging;
* the **horizontal send pipeline**: each merged buffer covers exactly one
  global output block (possibly partially, at the ends of this node's
  merged range), and is sent to the block's round-robin owner;
* a disjoint **receive pipeline** that accepts blocks this node owns and
  writes them at the proper striped offsets.

Load balancing is implicit: the merged streams of the P nodes concatenate
into the global sorted order, and PDM striping deals the blocks of that
order round-robin across nodes regardless of how unbalanced the partition
sizes were.
"""

from __future__ import annotations

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import local_record
from repro.sorting.stages import (
    EndMarkers,
    RunMerge,
    add_run_readers,
    write_striped_stage,
)

__all__ = ["build_pass2", "TAG_PASS2"]

#: message tag for pass-2 block traffic (empty payload = end marker)
TAG_PASS2 = 12


def build_pass2(prog: FGProgram, node: Node, comm: Comm,
                schema: RecordSchema, runs: list[tuple[str, int]],
                start_global: int, output_file: str,
                vertical_block_records: int, out_block_records: int,
                nbuffers: int) -> None:
    """Add pass-2's vertical, horizontal, and receive pipelines to ``prog``.

    ``runs`` lists this node's sorted runs from pass 1; ``start_global``
    is the global rank of this node's smallest record (exclusive prefix
    sum of per-node totals).  A dead send stage can no longer deliver end
    markers, and every peer's receive stage counts on them, so the
    failure hook sends them in its stead.
    """
    P = comm.size
    rec_bytes = schema.record_bytes
    outB = out_block_records
    state: dict = {}  # 'p2_ends_sent': the failure hook's guard

    # -- vertical pipelines (virtual read stages) ---------------------------

    for run_name, n_run in runs:
        if n_run <= 0:
            raise SortError(f"run {run_name!r} is empty")
    merge_stage = Stage.source_driven("merge", None)  # fn bound below
    verticals = add_run_readers(
        prog, node, schema, [(name, 0, n) for name, n in runs],
        merge_stage, vertical_block_records)

    # -- horizontal pipeline: merge -> send ------------------------------------

    markers = EndMarkers(comm, schema, TAG_PASS2)

    def send(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                break
            records = buf.view(schema.dtype)
            block = buf.tags["global_block"]
            comm.send(block % P, records.copy(), tag=TAG_PASS2,
                      meta={"global_block": block,
                            "offset": buf.tags["offset"]})
            ctx.convey(buf)
        markers.send()
        state["p2_ends_sent"] = True
        ctx.forward(buf)

    prog.on_pipeline_failure = markers.on_failure("send", state,
                                                  "p2_ends_sent")

    horizontal = prog.add_pipeline(
        "merge-out", [merge_stage, Stage.source_driven("send", send)],
        nbuffers=nbuffers, buffer_bytes=outB * rec_bytes, rounds=None)

    def merge(ctx):
        merging = RunMerge(ctx, node, schema, verticals)
        emitted = 0
        while (out := merging.next_output(horizontal)) is not None:
            block, offset = divmod(start_global + emitted, outB)
            # fill exactly to the stripe-block boundary so each conveyed
            # buffer maps to one global block
            target = outB - offset
            filled = merging.fill(
                out.data[:target * rec_bytes].view(schema.dtype), target)
            out.size = filled * rec_bytes
            out.tags["global_block"] = block
            out.tags["offset"] = offset
            ctx.convey(out)
            emitted += filled
        ctx.convey_caboose(horizontal)

    merge_stage.fn = merge

    # -- receive pipeline: accept owned blocks, write them striped ---------------

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        ends = 0
        while ends < P:
            msg = comm.recv_msg(tag=TAG_PASS2)
            if len(msg.payload) == 0:
                ends += 1
                continue
            block = msg.meta["global_block"]
            if block % P != comm.rank:
                raise SortError(
                    f"node {comm.rank} received block {block} owned by "
                    f"node {block % P}")
            buf = ctx.accept()
            if buf.is_caboose:  # pipeline poisoned by a downstream failure
                ctx.forward(buf)
                return
            node.compute_copy(msg.payload.nbytes)
            buf.put(msg.payload)
            buf.tags.update(msg.meta)
            ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    prog.add_pipeline(
        "recv", [Stage.source_driven("receive", receive),
                 write_striped_stage(node, schema, output_file, outB, P)],
        nbuffers=nbuffers, buffer_bytes=outB * rec_bytes, rounds=None)


# -- recovery variant --------------------------------------------------------


def pieces_of(start_global: int, total: int,
              out_block_records: int) -> list[tuple[int, int, int]]:
    """Chop one node's merged range into output stripe pieces.

    Returns ``(global block, offset within block, records)`` triples in
    merge order — the deterministic unit of pass-2 checkpointing: a
    piece is durable once its owner wrote and journaled it, and a
    resumed merge restarts at the first non-durable piece.
    """
    pieces = []
    pos, end = start_global, start_global + total
    while pos < end:
        blk, off = pos // out_block_records, pos % out_block_records
        cnt = min(out_block_records - off, end - pos)
        pieces.append((blk, off, cnt))
        pos += cnt
    return pieces


def _add_merge_chain(prog: FGProgram, node: Node, comm: Comm,
                     schema: RecordSchema, manager, state: dict, *,
                     label: str, pid: str, runs: list[tuple[str, int, int]],
                     pieces: list[tuple[int, int, int]], total: int,
                     start_piece: int, positions: list[int],
                     emitted0: int, vB: int, outB: int, nbuffers: int,
                     owners: list[int], durable_all: dict,
                     gate_rank, contender, gauge_name, mlog,
                     role) -> None:
    """One merge chain: verticals over ``runs`` -> merge -> send.

    The primary chain (``label == ""``) is the classic pass-2 topology;
    recovery adds resumability (``start_piece`` / ``positions`` /
    ``emitted0`` from the merge log), and the same builder also erects
    *backup* chains (speculation: gated on :meth:`backup_wait`, racing
    the primary as contender ``"b"``) and *adopted* chains (a dead
    rank's partition range merged from its backup runs by the adopter).
    Every chain is an independent set of pipelines; a chain that loses
    its race raises :class:`~repro.errors.SpeculationLost` and drains
    through the ordinary poison/teardown path, end markers included.
    """
    from repro.errors import SpeculationLost

    S = len(owners)
    rec_bytes = schema.record_bytes
    ends_key = f"ends:{pid}"
    journal_every = manager.policy.journal_every

    verdict: dict = {}

    def gate_check() -> None:
        # first caller parks in backup_wait; the verdict is sticky, so
        # every later call is a cheap cache hit
        if "v" not in verdict:
            verdict["v"] = manager.backup_wait(gate_rank)
        if verdict["v"] != "activate":
            raise SpeculationLost(
                f"backup merge for rank {gate_rank} stood down")

    gated = contender == "b"

    def check_defeat() -> None:
        # called at every disk-read and merge-refill boundary: the
        # moment the other contender finishes the range, this chain's
        # stages stand down and free the disk arm — on a straggler,
        # that arm is exactly what its receive-side output writes are
        # queued behind
        if contender is None:
            return
        winner = manager.winner_of(gate_rank)
        if winner is not None and winner != contender:
            raise SpeculationLost(
                f"range of rank {gate_rank} already merged by the "
                "other contender")

    # -- verticals (skip runs the checkpoint already consumed) ------------

    def before_read() -> None:
        if gated:
            gate_check()  # no disk touched before the race opens
        check_defeat()

    merge_stage = Stage.source_driven(f"{label}merge", None)
    verticals = add_run_readers(
        prog, node, schema,
        [(name, r0 + p0, n_run - p0)
         for (name, r0, n_run), p0 in zip(runs, positions)],
        merge_stage, vB, label=label, role=role, before_read=before_read)

    # -- horizontal: merge -> send ----------------------------------------

    markers = EndMarkers(comm, schema, TAG_PASS2, producer=pid,
                         skip=manager.is_dead)

    def send(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                break
            records = buf.view(schema.dtype)
            blk = buf.tags["global_block"]
            off = buf.tags["offset"]
            dest = owners[blk % S]
            if (not manager.is_dead(dest)
                    and (blk, off) not in durable_all.get(dest, ())):
                comm.send(dest, records.copy(), tag=TAG_PASS2,
                          meta={"global_block": blk, "offset": off})
            ctx.convey(buf)
        markers.send()
        state[ends_key] = True
        ctx.forward(buf)

    horizontal = prog.add_pipeline(
        f"{label}merge-out",
        [merge_stage, Stage.source_driven(f"{label}send", send)],
        nbuffers=nbuffers, buffer_bytes=outB * rec_bytes, rounds=None,
        role=role)
    state.setdefault("send_hooks", {})[f"{label}send"] = (
        markers.on_failure(f"{label}send", state, ends_key))

    metrics = getattr(node.kernel, "metrics", None)
    gauge = (metrics.gauge(gauge_name,
                           help="fraction of the partition range merged")
             if metrics is not None and gauge_name else None)

    def merge(ctx):
        if gated:
            gate_check()

        def run_ended(i, fed):
            # a poisoned vertical (its read stage died) flushes a
            # caboose too; honoring it as end-of-run would merge the
            # surviving runs into wrong-but-sorted pieces — which
            # checkpointing would then make durable.  Only a
            # fully-delivered run may retire.
            if positions[i] + fed != runs[i][2]:
                check_defeat()
                raise SortError(
                    f"pass-2 vertical {i} died after {positions[i] + fed} "
                    f"of {runs[i][2]} records")

        merging = RunMerge(ctx, node, schema, verticals,
                           before_refill=check_defeat, run_ended=run_ended)
        merger = merging.merger
        emitted = emitted0
        for idx in range(start_piece, len(pieces)):
            check_defeat()
            blk, off, cnt = pieces[idx]
            out = merging.take(horizontal)
            out_records = out.data[:cnt * rec_bytes].view(schema.dtype)
            if merging.fill(out_records, cnt) < cnt:
                check_defeat()
                raise SortError(
                    "pass-2 merge ran dry before its range completed")
            out.size = cnt * rec_bytes
            out.tags["global_block"] = blk
            out.tags["offset"] = off
            ctx.convey(out)
            emitted += cnt
            if gauge is not None:
                gauge.set(emitted / max(total, 1))
            if mlog is not None and (idx == len(pieces) - 1
                                     or (idx + 1 - start_piece)
                                     % journal_every == 0):
                consumed = [positions[i] + merging.fed[i]
                            - merger.head_remaining(i)
                            if i in verticals else positions[i]
                            for i in range(len(runs))]
                mlog.append({"k": idx, "e": emitted, "pos": consumed})
        # totals are exact, so past the last piece only cabooses remain;
        # accept them so the vertical pipelines can finish
        while not merger.exhausted:
            if not merger.needs():
                raise SortError(
                    "pass-2 merge has records beyond its range")
            merging.refill()
        ctx.convey_caboose(horizontal)
        if contender is not None:
            manager.range_complete(gate_rank, contender)

    merge_stage.fn = merge


def build_pass2_recover(prog: FGProgram, node: Node, comm: Comm,
                        schema: RecordSchema, *, manager,
                        runs: list[tuple[str, int, int]], totals: dict,
                        start_globals: dict, owners: list[int],
                        producers: dict, output_file: str,
                        vertical_block_records: int,
                        out_block_records: int, nbuffers: int,
                        state: dict, durable_all: dict, durable_own: set,
                        resume: dict, jrn2, mlog,
                        speculative: bool) -> None:
    """The recovering variant of :func:`build_pass2`.

    Erects up to three kinds of merge chains on this node — its own
    partition range (resumable from the merge log), a gated speculative
    backup of the rank it buddies for, and an adopted chain per dead
    rank whose backups live here — plus one receive pipeline that
    writes owned stripe pieces under the survivor striping ``owners``
    and journals them write-ahead (batched) for the next attempt's
    resume.  ``producers`` (identical on every rank) maps each logical
    producer id to its host rank; the receive stage finishes once every
    producer's end marker arrived, with the recovery manager's watchdog
    standing in for producers whose host died.
    """
    from repro.errors import FaultError

    S = len(owners)
    rank = comm.rank
    rec_bytes = schema.record_bytes
    vB = vertical_block_records
    outB = out_block_records
    policy = manager.policy

    def on_failure(stage, pipelines, exc):
        # a dead send stage can no longer deliver its chain's end
        # markers; send them in its stead (unless this whole node died
        # — then the watchdog compensates out-of-band)
        hook = state.get("send_hooks", {}).get(stage.name)
        if hook is None:
            return
        try:
            hook(stage, pipelines, exc)
        except FaultError:
            pass  # this node is dying too; the watchdog takes over

    prog.on_pipeline_failure = on_failure

    # -- own partition range (the primary chain) --------------------------

    _add_merge_chain(
        prog, node, comm, schema, manager, state,
        label="", pid=f"p{rank}", runs=runs,
        pieces=pieces_of(start_globals[rank], totals[rank], outB),
        total=totals[rank],
        start_piece=resume["start_piece"], positions=resume["positions"],
        emitted0=resume["emitted0"], vB=vB, outB=outB, nbuffers=nbuffers,
        owners=owners, durable_all=durable_all,
        gate_rank=rank, contender="p" if speculative and totals[rank] > 0
        else None,
        gauge_name=f"recovery.progress.{rank}", mlog=mlog, role=None)

    # -- speculative backup of the rank this node buddies for -------------

    if speculative:
        for r in owners:
            if r == rank or manager.buddy(r) != rank or totals[r] <= 0:
                continue
            bruns = manager.backup_runs_of(r)
            if not bruns:
                continue
            _add_merge_chain(
                prog, node, comm, schema, manager, state,
                label=f"bak{r}.", pid=f"b{r}", runs=bruns,
                pieces=pieces_of(start_globals[r], totals[r], outB),
                total=totals[r], start_piece=0,
                positions=[0] * len(bruns), emitted0=0,
                # whole-run reads: the backups live in contiguous
                # segment files, so recovery reads pay one seek per run
                vB=max(n for _, _, n in bruns), outB=outB,
                nbuffers=nbuffers,
                owners=owners, durable_all=durable_all,
                gate_rank=r, contender="b",
                gauge_name=f"recovery.progress.bak.{r}", mlog=None,
                role="backup")

    # -- adopted ranges of dead ranks whose backups live here --------------

    for d, adopter in sorted(manager.adopters().items()):
        if adopter != rank or totals.get(d, 0) <= 0:
            continue
        druns = manager.backup_runs_of(d)
        _add_merge_chain(
            prog, node, comm, schema, manager, state,
            label=f"adopt{d}.", pid=f"a{d}", runs=druns,
            pieces=pieces_of(start_globals[d], totals[d], outB),
            total=totals[d], start_piece=0,
            positions=[0] * len(druns), emitted0=0,
            vB=max(n for _, _, n in druns), outB=outB, nbuffers=nbuffers,
            owners=owners, durable_all=durable_all,
            gate_rank=d, contender=None,
            gauge_name=f"recovery.progress.adopt.{d}", mlog=None,
            role="adopted")

    # -- receive pipeline: owned pieces under the survivor striping --------

    out_local = RecordFile(node.disk, output_file, schema)

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        expected = set(producers)
        ends: set = set()
        written = set(durable_own)
        while not expected <= ends:
            msg = comm.recv_msg(tag=TAG_PASS2)
            meta = msg.meta or {}
            if len(msg.payload) == 0:
                pid = meta.get("producer")
                if pid is not None:
                    ends.add(pid)
                continue
            blk = meta["global_block"]
            if owners[blk % S] != rank:
                raise SortError(
                    f"node {rank} received block {blk} owned by node "
                    f"{owners[blk % S]}")
            key = (blk, meta["offset"])
            if key in written:
                continue  # durable already, or the race's second copy
            written.add(key)
            buf = ctx.accept()
            if buf.is_caboose:  # pipeline poisoned by a downstream failure
                ctx.forward(buf)
                return
            node.compute_copy(msg.payload.nbytes)
            buf.put(msg.payload)
            buf.tags.update(msg.meta)
            ctx.convey(buf)
        # final (possibly empty) buffer flushes the write stage's
        # batched journal tail
        buf = ctx.accept()
        if buf.is_caboose:
            ctx.forward(buf)
            return
        buf.put(schema.empty(0))
        buf.tags["last"] = True
        ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    pending_pieces: list = []

    def write(ctx, buf):
        records = buf.view(schema.dtype)
        if len(records):
            blk = buf.tags["global_block"]
            out_local.write(local_record(blk, buf.tags["offset"], outB, S),
                            records)
            if jrn2 is not None:
                pending_pieces.append([int(blk),
                                       int(buf.tags["offset"])])
        if pending_pieces and (len(pending_pieces) >= policy.journal_every
                               or buf.tags.get("last")):
            jrn2.append({"ps": list(pending_pieces)})
            pending_pieces.clear()
        return buf

    prog.add_pipeline(
        "recv", [Stage.source_driven("receive", receive),
                 Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=outB * rec_bytes, rounds=None)
