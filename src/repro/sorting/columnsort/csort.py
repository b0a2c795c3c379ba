"""csort: three-pass out-of-core columnsort on single linear FG pipelines.

Pass structure (paper, Section III, Figure 3): each pass runs ONE linear
pipeline per node — csort never needs FG's multi-pipeline extensions
because all of its communication is balanced and predetermined:

* **pass 1** (steps 1-2): ``read -> sort -> communicate -> write``; the
  communicate stage does a balanced ``alltoallv`` routing each sorted
  column's transpose pieces and assembles the received pieces into one
  contiguous r-record block ("fragmented column" layout);
* **pass 2** (steps 3-4): identical shape with the untranspose routing;
* **pass 3** (steps 5-8): ``read -> sort -> shift -> sort -> stripe ->
  write``; the shift stage exchanges sorted half-columns with the
  neighboring column's owner (matched Send/Recv pairs of equal size), the
  second sort realizes step 7, and the stripe stage performs one more
  balanced exchange that deals the final sorted segments into PDM striped
  blocks.

Column ownership is round-robin (column j on node j % P), which makes the
half-column shift flow forward across same-numbered rounds instead of
serializing the cluster.

Intermediate columns are stored *fragmented*: each round writes one
contiguous r-record block, and each column is read back as s/P contiguous
chunks.  The records within an intermediate column arrive unordered —
harmless, because the next pass's first act is to sort the column (the
odd columnsort steps), so only the multiset routed to each column matters.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import ColumnsortShapeError, SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import local_record, striped_share
from repro.sorting.columnsort.steps import (
    ColumnsortPlan,
    plan_columnsort,
    validate_shape,
)
from repro.sorting.stages import run_pass, sort_stage

__all__ = ["CsortConfig", "CsortReport", "run_csort"]

TAG_SHIFT = 31
TAG_STRIPE = 32


@dataclasses.dataclass(frozen=True)
class CsortConfig:
    """Tuning knobs for csort."""

    #: records per output stripe block; must satisfy P * block <= r
    out_block_records: int = 4096
    #: buffers per pipeline
    nbuffers: int = 4
    input_file: str = "input"
    output_file: str = "output"
    #: intermediate file names (deleted afterwards when cleanup is set)
    temp1_file: str = "csort-L1"
    temp2_file: str = "csort-L2"
    cleanup_temps: bool = True
    #: force a specific column count instead of the planner's choice
    s_override: Optional[int] = None
    #: copies of the permute passes' sort stage (stateless map; see
    #: repro.tune and docs/TUNING.md)
    sort_replicas: int = 1
    #: prefix for FGProgram names; the multi-tenant scheduler sets a
    #: per-job prefix so concurrent jobs stay distinguishable
    name_prefix: str = "csort"

    def __post_init__(self):
        if self.out_block_records < 1:
            raise SortError("out_block_records must be >= 1")
        if self.nbuffers < 1:
            raise SortError("nbuffers must be >= 1")
        if self.sort_replicas < 1:
            raise SortError("sort_replicas must be >= 1")


@dataclasses.dataclass
class CsortReport:
    """Per-node result of one csort execution (times in kernel seconds)."""

    rank: int
    pass1_time: float
    pass2_time: float
    pass3_time: float
    plan: ColumnsortPlan

    @property
    def total_time(self) -> float:
        return self.pass1_time + self.pass2_time + self.pass3_time


def _build_permute_pass(prog: FGProgram, node: Node, comm: Comm,
                        schema: RecordSchema, plan: ColumnsortPlan,
                        in_file: str, in_fragmented: bool, out_file: str,
                        routing: str, nbuffers: int, name: str,
                        sort_replicas: int = 1) -> None:
    """One of the two permutation passes (steps 1-2 or 3-4)."""
    P = comm.size
    r, s = plan.r, plan.s
    spp = plan.cols_per_node
    frag = plan.frag_records
    rec_bytes = schema.record_bytes
    item = schema.item
    rf_in = RecordFile(node.disk, in_file, schema)
    rf_out = RecordFile(node.disk, out_file, schema)
    # sized up front like the output, so each round's block lands in place
    node.disk.storage.truncate(out_file, spp * r * rec_bytes)

    def read(ctx, buf):
        t = buf.round
        column = buf.fill(schema.dtype, r)
        if in_fragmented:
            _read_column(rf_in, plan, t, column)
        else:
            rf_in.read_into(t * r, column)
        buf.tags["column"] = t * P + comm.rank
        return buf

    def communicate(ctx, buf):
        # records are only moved here: copied as opaque items, sent as
        # records
        items = buf.view(item)
        column = buf.tags["column"]
        # one gathering copy per destination, in its local round order
        if routing == "transpose":
            # row i -> column i % s: piece for column j is items[j::s]
            pieces = items.reshape(r // s, s).T    # (s, frag) view
            chunks = [pieces[dest::P].flatten() for dest in range(P)]
        else:
            # row i -> column (i*s + c) // r: contiguous slices
            starts = [max(0, (j * r - column + s - 1) // s)
                      for j in range(s)] + [r]
            chunks = [np.concatenate([items[starts[j]:starts[j + 1]]
                                      for j in range(dest, s, P)])
                      for dest in range(P)]
        node.compute_copy(items.nbytes)
        received = comm.alltoall([c.view(schema.dtype) for c in chunks])
        # assemble the round block in place (every chunk is a copy, so
        # the buffer is free): [my column j_local][sender n][frag]
        block = items.reshape(spp, P, frag)
        for sender, chunk in enumerate(received):
            block[:, sender] = chunk.view(item).reshape(spp, frag)
        node.compute_copy(items.nbytes)
        return buf

    def write(ctx, buf):
        rf_out.write(buf.round * r, buf.view(schema.dtype))
        return buf

    prog.add_pipeline(
        name,
        [Stage.map("read", read), sort_stage(node, schema),
         Stage.map("communicate", communicate), Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=r * rec_bytes, rounds=spp,
        aux_buffers=True,
        replicas={"sort": sort_replicas} if sort_replicas > 1 else None)


def _read_column(rf_in: RecordFile, plan: ColumnsortPlan, t: int,
                 out: np.ndarray) -> None:
    """Read this node's round-``t`` column of a fragmented file into
    ``out`` (``r`` records): s/P contiguous chunks, one per round block,
    each landing at its place in the column."""
    span = plan.n_nodes * plan.frag_records
    for tp in range(plan.cols_per_node):
        rf_in.read_into(tp * plan.r + t * span,
                        out[tp * span:(tp + 1) * span])


def _column_read_stage(node: Node, comm: Comm, schema: RecordSchema,
                       plan: ColumnsortPlan, in_file: str) -> Stage:
    """``read`` of the shift passes: one fragmented column per round,
    then one empty ``final`` buffer for the extra round in which the
    pending bottom half-column drains."""
    rf_in = RecordFile(node.disk, in_file, schema)

    def read(ctx, buf):
        t = buf.round
        if t == plan.cols_per_node:
            buf.clear()
            buf.tags["final"] = True
            return buf
        _read_column(rf_in, plan, t, buf.fill(schema.dtype, plan.r))
        buf.tags["column"] = t * comm.size + comm.rank
        return buf

    return Stage.map("read", read)


def _stripe_stage(node: Node, comm: Comm, schema: RecordSchema,
                  block_records: int, tag: int) -> Stage:
    """Balanced exchange dealing sorted segments into striped blocks.

    A buffer holds the sorted records of final positions
    ``[tags['g0'], tags['g0'] + len)``.  Every node sends exactly one
    (possibly empty) message to every node per round and receives
    exactly P, so the stage stays balanced and deterministic even though
    block ownership is round-robin.  Leaves what this node owns in the
    buffer, with ``tags['placements']`` for :func:`_write_placements_stage`.
    """
    P = comm.size
    B = block_records
    rec_bytes = schema.record_bytes
    item = schema.item

    def stripe(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            # copied as opaque items, sent as records
            items = buf.view(item)
            g0 = buf.tags.get("g0", 0)
            length = len(items)
            # split [g0, g0+length) into per-owner block-aligned groups;
            # an owner's blocks are every P-th, so its group is contiguous
            # in its local file
            groups: list[list] = [[] for _ in range(P)]
            metas: list[Optional[dict]] = [None] * P
            if length:
                first_block = g0 // B
                last_block = (g0 + length - 1) // B
                for gb in range(first_block, last_block + 1):
                    lo = max(gb * B, g0)
                    hi = min((gb + 1) * B, g0 + length)
                    owner = gb % P
                    groups[owner].append(items[lo - g0:hi - g0])
                    if metas[owner] is None:
                        metas[owner] = {"gb": gb, "off": lo - gb * B}
            for dest in range(P):
                payload = (np.concatenate(groups[dest]).view(schema.dtype)
                           if groups[dest] else schema.empty(0))
                comm.send(dest, payload, tag=tag, meta=metas[dest])
            buf.clear()
            placements = []
            fill = 0
            target = buf.data[:].view(item)
            for _ in range(P):
                msg = comm.recv_msg(tag=tag)
                if len(msg.payload) == 0:
                    continue
                node.compute_copy(msg.payload.nbytes)
                target[fill:fill + len(msg.payload)] = msg.payload.view(item)
                placements.append((msg.meta["gb"], msg.meta["off"],
                                   fill, len(msg.payload)))
                fill += len(msg.payload)
            buf.size = fill * rec_bytes
            buf.tags["placements"] = placements
            ctx.convey(buf)

    return Stage.source_driven("stripe", stripe)


def _write_placements_stage(node: Node, comm: Comm, schema: RecordSchema,
                         out_file: str, block_records: int) -> Stage:
    """``write`` behind :func:`_stripe_stage`: each placement goes to its
    block's place in this node's share of the striped output."""
    out_local = RecordFile(node.disk, out_file, schema)

    def write(ctx, buf):
        if buf.size == 0:
            return buf
        records = buf.view(schema.dtype)
        for gb, off, start, count in buf.tags["placements"]:
            out_local.write(local_record(gb, off, block_records, comm.size),
                            records[start:start + count])
        return buf

    return Stage.map("write", write)


def _build_pass3(prog: FGProgram, node: Node, comm: Comm,
                 schema: RecordSchema, plan: ColumnsortPlan, in_file: str,
                 out_file: str, block_records: int, nbuffers: int) -> None:
    """Steps 5-8 plus striping, in one linear pipeline."""
    P = comm.size
    r, s = plan.r, plan.s
    half = r // 2
    item = schema.item
    state: dict = {}

    def shift(ctx):
        """Step 6: form shifted column c from bottom(c-1) + top(c).
        Half-columns are copied as opaque items, sent as records."""
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            if buf.tags.get("final"):
                # the extra round: only the owner of column s-1 holds the
                # pending bottom half, which becomes the final segment
                bottom = state.pop("pending_bottom", None)
                if bottom is not None:
                    buf.put(bottom)
                    buf.tags["g0"] = s * r - half
                ctx.convey(buf)
                continue
            column = buf.tags["column"]
            items = buf.view(item)
            top = items[:half]   # stays in the buffer until the put
            bottom = items[half:].copy().view(schema.dtype)
            if column + 1 < s:
                comm.send((column + 1) % P, bottom, tag=TAG_SHIFT)
            else:
                state["pending_bottom"] = bottom  # used in the final round
            if column == 0:
                # shifted column 0 = [-inf*half, top]; the -infs drop out
                buf.put(top)
                buf.tags["g0"] = 0
            else:
                _, prev_bottom = comm.recv(source=(column - 1) % P,
                                           tag=TAG_SHIFT)
                node.compute_copy(prev_bottom.nbytes + top.nbytes)
                # top moves behind prev_bottom before prev_bottom lands in
                # front of it: len(prev_bottom) >= half, so the two ranges
                # never overlap
                shifted = buf.fill(item, len(prev_bottom) + half)
                shifted[len(prev_bottom):] = top
                shifted[:len(prev_bottom)] = prev_bottom.view(item)
                buf.tags["g0"] = column * r - half
            ctx.convey(buf)

    stages = [_column_read_stage(node, comm, schema, plan, in_file),
              sort_stage(node, schema, "sort5"),
              Stage.source_driven("shift", shift),
              sort_stage(node, schema, "sort7"),
              _stripe_stage(node, comm, schema, block_records, TAG_STRIPE),
              _write_placements_stage(node, comm, schema, out_file,
                                   block_records)]
    # pass 3 is deeper than the permute passes: floor the pool at the
    # pipeline depth so every stage can hold a buffer at once (FG101)
    prog.add_pipeline(
        "pass3", stages, nbuffers=max(nbuffers, len(stages)),
        buffer_bytes=2 * r * schema.record_bytes,
        rounds=plan.cols_per_node + 1)


def _size_output(node: Node, comm: Comm, schema: RecordSchema,
                 config: CsortConfig, n_total: int) -> None:
    """Size this node's striped share of the output, so the last pass's
    blocks land in place (untimed; call just before that pass)."""
    my_records = striped_share(n_total, config.out_block_records,
                               comm.size, comm.rank)
    node.disk.storage.truncate(config.output_file,
                               my_records * schema.record_bytes)


def _plan_run(node: Node, comm: Comm, schema: RecordSchema,
              config: CsortConfig) -> ColumnsortPlan:
    """Agree on this run's matrix shape (collective): the input must be
    evenly distributed, the column count is the planner's unless
    ``s_override`` forces one, and the stripe block must let the last
    pass deal each round in single groups."""
    P = comm.size
    totals = comm.allgather(
        RecordFile(node.disk, config.input_file, schema).n_records)
    if len(set(totals)) != 1:
        raise ColumnsortShapeError(
            f"csort needs evenly distributed input; per-node sizes "
            f"{totals}")
    n_total = sum(totals)
    if config.s_override is not None:
        s = config.s_override
        if n_total % s != 0:
            raise ColumnsortShapeError(
                f"s_override {s} does not divide N = {n_total}")
        r = n_total // s
        validate_shape(n_total, r, s, P)
        plan = ColumnsortPlan(n_total, r, s, P)
    else:
        plan = plan_columnsort(n_total, P)
    if config.out_block_records * P > plan.r:
        raise ColumnsortShapeError(
            f"stripe block of {config.out_block_records} records needs "
            f"P*block <= r = {plan.r} so each round's exchange stays "
            "single-group per owner")
    return plan


def run_csort(node: Node, comm: Comm, schema: RecordSchema,
              config: Optional[CsortConfig] = None) -> CsortReport:
    """Sort the cluster's ``input`` files into striped ``output`` (SPMD)."""
    if config is None:
        config = CsortConfig()
    plan = _plan_run(node, comm, schema, config)

    # each file lives only while a pass reads or writes it: a stale
    # output goes now, the new one is sized just before pass 3 fills it
    RecordFile(node.disk, config.output_file, schema).delete()

    def program(k: int) -> str:
        return f"{config.name_prefix}-p{k}@{comm.rank}"

    comm.barrier()
    t0 = node.kernel.now()

    t1 = run_pass(node, comm, program(1), lambda prog: _build_permute_pass(
        prog, node, comm, schema, plan,
        in_file=config.input_file, in_fragmented=False,
        out_file=config.temp1_file, routing="transpose",
        nbuffers=config.nbuffers, name="pass1",
        sort_replicas=config.sort_replicas))

    t2 = run_pass(node, comm, program(2), lambda prog: _build_permute_pass(
        prog, node, comm, schema, plan,
        in_file=config.temp1_file, in_fragmented=True,
        out_file=config.temp2_file, routing="untranspose",
        nbuffers=config.nbuffers, name="pass2",
        sort_replicas=config.sort_replicas))
    # every node is past pass 2's last read of the first temporary
    if config.cleanup_temps:
        node.disk.delete(config.temp1_file)
    _size_output(node, comm, schema, config, plan.n_records)

    t3 = run_pass(node, comm, program(3), lambda prog: _build_pass3(
        prog, node, comm, schema, plan,
        in_file=config.temp2_file, out_file=config.output_file,
        block_records=config.out_block_records, nbuffers=config.nbuffers))

    if config.cleanup_temps:
        node.disk.delete(config.temp2_file)

    return CsortReport(rank=comm.rank, pass1_time=t1 - t0,
                       pass2_time=t2 - t1, pass3_time=t3 - t2, plan=plan)
