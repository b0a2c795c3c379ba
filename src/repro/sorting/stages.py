"""The stage library: every stage the paper's programs share, written once.

The paper's first claim for FG is that a stage is an ordinary
synchronous function and can therefore be *reused*; TPIE ships its
sorter, merger and scatter as library pipeline nodes for the same
reason.  dsort (both variants), nowsort, linear dsort, groupby, csort
and csort4 are assembled from the entries below — DESIGN.md, "Stage
library", has the table of who uses what under which stage name.

Each entry hides a protocol, not a call:

* :func:`sort_stage`, :func:`permute_stage`, :func:`write_run_stage`,
  :func:`write_striped_stage` — map stages.  **Empty buffers pass
  through untouched**: that is the one rule behind every ``final`` /
  ``drain`` / ``skip`` guard the copies used to carry.
* :func:`group_by_partition`, :func:`partition_slices`,
  :func:`scatter`, :class:`EndMarkers` — the sending half of an
  unbalanced exchange: dole a permuted block out per destination, then
  owe every peer exactly one end marker, even if the send stage dies.
* :func:`packing_receive_stage` — the receiving half: pack whatever
  arrives into full buffers until all P markers are in.
* :func:`add_run_readers` + :class:`RunMerge` — the intersecting-pipeline
  merge: virtual reader pipelines over sorted runs, and the refill /
  fill / take-an-output-buffer steps of the stage they intersect at.
* :func:`run_pass` — one pass of an SPMD program, barrier-aligned.

Two constraints shape the code.  State that lives for one invocation of
a stage (a :class:`RunMerge`, counters) is created *inside* the stage
function, never captured: the effect analysis
(:mod:`repro.check.dataflow`) classifies a stage by the shared cells its
own bytecode touches, and FGRace keys its frontiers by the captured
objects.  And nothing
here branches on which program is calling; what recovery weaves into
its variants (block metadata, journals, gates) stays in
:mod:`repro.sorting.dsort.pass1` / :mod:`~repro.sorting.dsort.pass2`
and reaches the library as plain callables.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import local_record
from repro.sorting.merge import BlockMerger

__all__ = [
    "EndMarkers",
    "RunMerge",
    "add_run_readers",
    "group_by_partition",
    "packing_receive_stage",
    "partition_slices",
    "permute_stage",
    "run_pass",
    "scatter",
    "sort_stage",
    "write_run_stage",
    "write_striped_stage",
]


# -- map stages --------------------------------------------------------------


def sort_stage(node: Node, schema: RecordSchema,
               name: str = "sort") -> Stage:
    """Sort each buffer's records by key, charging the node's sort cost.

    Stateless, so it is the stage the tuner may replicate.
    """

    def sort(ctx, buf):
        if buf.size == 0:
            return buf
        records = buf.view(schema.dtype)
        node.compute_sort(len(records))
        buf.put(schema.sort(records))
        return buf

    return Stage.map(name, sort)


def group_by_partition(node: Node, records: np.ndarray, part: np.ndarray,
                       n_partitions: int) -> tuple[np.ndarray, np.ndarray]:
    """Rearrange ``records`` so each partition's are contiguous (stable),
    charged as a binary search per record plus an out-of-place permute.
    Returns ``(permuted records, records per partition)``.

    The ids are sorted in the narrowest unsigned type that holds them:
    numpy sorts integers of 16 bits or fewer by radix, in linear time,
    and a stable order is the same whatever the id type."""
    order = np.argsort(part.astype(np.min_scalar_type(n_partitions - 1)),
                       kind="stable")
    hw = node.hardware
    node.compute(hw.sort_cost_per_key_log * len(records)
                 * max(1.0, math.log2(n_partitions))
                 + hw.copy_time(records.nbytes))
    return records[order], np.bincount(part, minlength=n_partitions)


def permute_stage(node: Node, schema: RecordSchema, n_partitions: int,
                  partition_of: Callable[[np.ndarray, np.ndarray],
                                         np.ndarray]) -> Stage:
    """dsort's ``permute``: group a block read at ``tags['start']`` by
    partition and leave the per-partition counts in ``tags['counts']``.

    ``partition_of(keys, positions)`` maps each record — its key and its
    position in this node's input, the two halves of its extended key —
    to a partition index.
    """

    def permute(ctx, buf):
        if buf.size == 0:
            return buf
        records = buf.view(schema.dtype)
        start = buf.tags["start"]
        part = partition_of(
            records["key"],
            np.arange(start, start + len(records), dtype=np.int64))
        grouped, counts = group_by_partition(node, records, part,
                                             n_partitions)
        buf.put(grouped)
        buf.tags["counts"] = counts
        return buf

    return Stage.map("permute", permute)


def write_run_stage(node: Node, schema: RecordSchema, run_prefix: str,
                    state: dict) -> Stage:
    """Write each buffer as one sorted run file ``{run_prefix}.{k}`` and
    append ``(name, records)`` to ``state['runs']`` (``state['next_run']``
    numbers them)."""

    def write(ctx, buf):
        if buf.size == 0:
            return buf
        records = buf.view(schema.dtype)
        run_name = f"{run_prefix}.{state['next_run']}"
        state["next_run"] += 1
        RecordFile(node.disk, run_name, schema).write(0, records)
        state["runs"].append((run_name, len(records)))
        return buf

    return Stage.map("write", write)


def write_striped_stage(node: Node, schema: RecordSchema, output_file: str,
                        block_records: int, width: int) -> Stage:
    """Write each buffer — part of global block ``tags['global_block']``
    from ``tags['offset']`` on — at its place in this node's share of a
    file striped over ``width`` owners."""
    out_local = RecordFile(node.disk, output_file, schema)

    def write(ctx, buf):
        if buf.size == 0:
            return buf
        out_local.write(local_record(buf.tags["global_block"],
                                     buf.tags["offset"], block_records,
                                     width),
                        buf.view(schema.dtype))
        return buf

    return Stage.map("write", write)


# -- the unbalanced exchange -------------------------------------------------


def partition_slices(records: np.ndarray, counts: np.ndarray
                     ) -> Iterator[tuple[int, np.ndarray]]:
    """``(destination, its records)`` for every non-empty partition of a
    block grouped by :func:`group_by_partition` (views, not copies)."""
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for dest in range(len(counts)):
        lo, hi = int(offsets[dest]), int(offsets[dest + 1])
        if hi > lo:
            yield dest, records[lo:hi]


def scatter(comm: Comm, schema: RecordSchema, records: np.ndarray,
            counts: np.ndarray, tag: int) -> None:
    """Dole a grouped block out: one message per non-empty partition,
    copied as opaque items and sent as records."""
    for dest, part in partition_slices(records, counts):
        comm.send(dest, part.view(schema.item).copy().view(schema.dtype),
                  tag=tag)


class EndMarkers:
    """One producer's end-of-stream markers: an empty message to every
    peer, owed exactly once.

    Every receive stage counts on one marker per producer, so a producer
    that dies without sending them hangs the cluster.  The send stage
    calls :meth:`send` after its caboose and then sets a flag in the
    program's ``state`` dict; :meth:`on_failure` builds the program's
    failure hook, which sends them on a dead send stage's behalf unless
    the flag says they went out.  (Any other stage's failure still
    reaches the send stage as a caboose, and the markers go out on the
    normal path.)

    ``producer`` names the logical producer in each marker's metadata and
    ``skip(dest)`` leaves out peers that are not listening (recovery:
    dead ranks).
    """

    def __init__(self, comm: Comm, schema: RecordSchema, tag: int, *,
                 producer: Optional[str] = None,
                 skip: Optional[Callable[[int], bool]] = None) -> None:
        self.comm = comm
        self.schema = schema
        self.tag = tag
        self.meta = None if producer is None else {"producer": producer}
        self.skip = skip

    def send(self) -> None:
        for dest in range(self.comm.size):
            if self.skip is None or not self.skip(dest):
                self.comm.send(dest, self.schema.empty(0), tag=self.tag,
                               meta=self.meta)

    def on_failure(self, stage_name: str, state: dict,
                   key: str) -> Callable[[Any, Any, Any], None]:
        """A ``hook(stage, pipelines, exc)`` for
        ``FGProgram.on_pipeline_failure``: if the stage called
        ``stage_name`` died before it set ``state[key]``, send its
        markers."""

        def hook(stage, pipelines, exc):
            if stage.name == stage_name and not state.get(key):
                state[key] = True
                self.send()

        return hook


def packing_receive_stage(node: Node, comm: Comm, schema: RecordSchema,
                          tag: int, block_records: int) -> Stage:
    """The ``receive`` stage of an unbalanced exchange (rounds unknown).

    Packs incoming payloads into ``block_records``-record buffers — a
    payload that overflows a buffer carries over into the next — until
    one end marker (empty payload) from each of the P producers is in
    and the leftovers are drained, then conveys the caboose.  Accepting a
    caboose means a downstream failure poisoned the pipeline: it is
    forwarded and the stage bows out.
    """
    P = comm.size
    rec_bytes = schema.record_bytes
    item = schema.item

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
            take = min(block_records, have)
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            node.compute_copy(take * rec_bytes)  # pack into pipeline buffer
            out = buf.fill(item, take)
            at = 0
            # every part but the last fits whole; the last one's tail is
            # the next buffer's first part.  Copied as opaque records:
            # numpy's structured copy is ~4x slower
            for payload in parts:
                n = min(len(payload), take - at)
                out[at:at + n] = payload[:n].view(item)
                at += n
            leftover = payload[n:] if n < len(payload) else None
            ctx.convey(buf)
            if ends == P and leftover is None:
                break
        ctx.convey_caboose(pipeline)

    return Stage.source_driven("receive", receive)


# -- the intersecting-pipeline merge -----------------------------------------


def add_run_readers(prog: FGProgram, node: Node, schema: RecordSchema,
                    runs: list[tuple[str, int, int]], merge_stage: Stage,
                    block_records: int, *, label: str = "",
                    role: Optional[str] = None,
                    before_read: Optional[Callable[[], None]] = None
                    ) -> dict[int, Any]:
    """One *vertical* pipeline per sorted run, all ending in
    ``merge_stage``: ``{label}v{i}`` = ``{label}read{i} -> merge``.

    ``runs[i]`` is ``(file, first record, records)`` — the stretch of the
    file still to be merged, read ``block_records`` at a time.  The read
    stages are virtual (group ``{label}read``): hundreds of runs cost one
    thread.  ``before_read`` runs ahead of every disk read (recovery's
    speculation gate).  Returns ``{i: pipeline}``; a run with nothing
    left gets no pipeline.
    """
    verticals: dict[int, Any] = {}
    for i, (run_name, first, n_run) in enumerate(runs):
        if n_run <= 0:
            continue
        run_file = RecordFile(node.disk, run_name, schema)

        def make_read(run_file, first, n_run):
            def read(ctx, buf):
                if before_read is not None:
                    before_read()
                start = buf.round * block_records
                run_file.read_into(first + start, buf.fill(
                    schema.dtype, min(block_records, n_run - start)))
                return buf
            return read

        stage = Stage.map(f"{label}read{i}",
                          make_read(run_file, first, n_run),
                          virtual=True, virtual_group=f"{label}read")
        verticals[i] = prog.add_pipeline(
            f"{label}v{i}", [stage, merge_stage], nbuffers=2,
            buffer_bytes=block_records * schema.record_bytes,
            rounds=math.ceil(n_run / block_records), role=role)
    return verticals


class RunMerge:
    """The merge stage's side of :func:`add_run_readers`: a k-way merge
    fed by the vertical pipelines, one head block per run.

    Create it *inside* the merge stage function (it primes one block per
    run on construction); the stage keeps what is its own — where output
    goes, how it is tagged, when the stream ends.  The protocol hidden
    here: a run's spent head buffer goes home before its next block is
    accepted; a vertical's caboose retires its run; and an output buffer
    is only taken once a record is ready to go into it
    (:meth:`next_output`), so the last buffer accepted is never stranded
    empty.

    ``before_refill()`` runs ahead of every refill and
    ``run_ended(i, fed)`` before run ``i`` retires having delivered
    ``fed`` records — recovery stands a beaten speculative chain down in
    the first and refuses a run cut short by a dead read stage in the
    second.
    """

    def __init__(self, ctx, node: Node, schema: RecordSchema,
                 verticals: dict[int, Any], *,
                 before_refill: Optional[Callable[[], None]] = None,
                 run_ended: Optional[Callable[[int, int], None]] = None
                 ) -> None:
        self.ctx = ctx
        self.node = node
        self.schema = schema
        self.verticals = verticals
        self.before_refill = before_refill
        self.run_ended = run_ended
        self.merger = BlockMerger(schema, sorted(verticals))
        #: records fed per run so far (consumed = fed - head_remaining)
        self.fed = dict.fromkeys(verticals, 0)
        self._head_buf: dict[int, Any] = {}
        self.refill()

    def refill(self) -> None:
        """Feed (or retire) every run whose head block has drained."""
        if self.before_refill is not None:
            self.before_refill()
        ctx, merger = self.ctx, self.merger
        for i in sorted(merger.needs()):
            if i in self._head_buf:
                ctx.convey(self._head_buf.pop(i))  # spent buffer goes home
            nxt = ctx.accept(self.verticals[i])
            if nxt.is_caboose:
                ctx.forward(nxt)
                if self.run_ended is not None:
                    self.run_ended(i, self.fed[i])
                merger.finish_run(i)
            else:
                block = nxt.view(self.schema.dtype)
                merger.feed(i, block)
                self.fed[i] += len(block)
                self._head_buf[i] = nxt

    def merge_some(self, out: np.ndarray, start: int, budget: int) -> int:
        """One merge step into ``out[start:start + budget]``, refilling
        first if a head has drained; returns the records merged, 0 only
        when every run is exhausted."""
        merger = self.merger
        if not merger.ready:
            self.refill()
        if merger.exhausted:
            return 0
        n = merger.merge_into(out, start, budget)
        self.node.compute_merge(n)
        return n

    def fill(self, out: np.ndarray, target: int) -> int:
        """Merge into ``out[:target]`` until it is full or the runs are
        exhausted; returns the records filled."""
        filled = 0
        while filled < target:
            n = self.merge_some(out, filled, target - filled)
            if n == 0:
                break
            filled += n
        return filled

    def take(self, horizontal) -> Any:
        """Accept the next buffer of the output pipeline.  A caboose
        here means that pipeline was poisoned below the merge stage;
        raising poisons the verticals too, so their sources wind down."""
        out = self.ctx.accept(horizontal)
        if out.is_caboose:
            raise SortError(
                f"output pipeline {horizontal.name!r} failed underneath "
                "its merge stage")
        return out

    def next_output(self, horizontal) -> Optional[Any]:
        """The next output buffer, taken only once a record is ready for
        it; None when the merge is exhausted."""
        merger = self.merger
        while not merger.exhausted:
            if merger.ready:
                return self.take(horizontal)
            self.refill()
        return None


# -- passes ------------------------------------------------------------------


def run_pass(node: Node, comm: Comm, name: str,
             build: Callable[[FGProgram], None]) -> float:
    """Run one pass of an SPMD program — a program called ``name`` that
    ``build(prog)`` fills in — and return the kernel time at which every
    rank had finished it (barrier-aligned, so all ranks agree)."""
    prog = FGProgram(node.kernel, env={"node": node, "comm": comm},
                     name=name)
    build(prog)
    prog.run()
    comm.barrier()
    return node.kernel.now()
