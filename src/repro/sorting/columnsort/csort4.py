"""The four-pass out-of-core columnsort (paper, Section III).

"A relatively simple four-pass implementation of out-of-core columnsort
groups together each pair of consecutive steps into a single pass" —
passes 1-2 are the permutation passes shared with the three-pass version;
pass 3 realizes steps 5-6 (sort, then shift down by half a column,
writing the *shifted* columns back to disk), and pass 4 realizes steps
7-8 (sort the shifted columns, unshift, stripe the final output).

The three-pass version exists precisely because "the communicate,
permute, and write stages of the third pass, together with the read stage
of the fourth pass, just shift each column down by the height of half a
column" — coalescing them eliminates one full read+write of the data.
This module keeps the un-coalesced version alive so the benefit is
measurable: csort4 moves 8x the data volume through the disks where
csort3 moves 6x and dsort 4x.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import ColumnsortShapeError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.columnsort.csort import (
    CsortConfig,
    _build_permute_pass,
    _size_output,
)
from repro.sorting.columnsort.steps import (
    ColumnsortPlan,
    plan_columnsort,
    validate_shape,
)

__all__ = ["Csort4Report", "run_csort4"]

TAG_SHIFT4 = 33
TAG_STRIPE4 = 34


@dataclasses.dataclass
class Csort4Report:
    """Per-node result of one four-pass csort execution."""

    rank: int
    pass_times: list[float]  #: four entries
    plan: ColumnsortPlan

    @property
    def total_time(self) -> float:
        return sum(self.pass_times)


def _shifted_len(m: int, s: int, half: int, r: int) -> int:
    """Stored record count of shifted column m (sentinel halves drop)."""
    if m == 0 or m == s:
        return half
    return r


def _build_pass3_shift(prog: FGProgram, node: Node, comm: Comm,
                       schema: RecordSchema, plan: ColumnsortPlan,
                       in_file: str, out_file: str, nbuffers: int) -> None:
    """Steps 5-6: sort each column, form shifted columns, write them."""
    P = comm.size
    r, s = plan.r, plan.s
    spp = plan.cols_per_node
    frag = plan.frag_records
    half = r // 2
    rec_bytes = schema.record_bytes
    rf_in = RecordFile(node.disk, in_file, schema)
    rf_out = RecordFile(node.disk, out_file, schema)
    state: dict = {}

    def read(ctx, buf):
        t = buf.round
        if t == spp:
            buf.clear()
            buf.tags["final"] = True
            return buf
        parts = [rf_in.read(tp * r + t * (P * frag), P * frag)
                 for tp in range(spp)]
        buf.put(np.concatenate(parts) if len(parts) > 1 else parts[0])
        buf.tags["column"] = t * P + comm.rank
        return buf

    def sort5(ctx, buf):
        if buf.tags.get("final"):
            return buf
        records = buf.view(schema.dtype)
        node.compute_sort(len(records))
        buf.put(schema.sort(records))
        return buf

    def shift(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            if buf.tags.get("final"):
                bottom = state.pop("pending_bottom", None)
                if bottom is not None:
                    buf.put(bottom)  # shifted column s (minus +inf half)
                buf.tags["slot"] = spp
                ctx.convey(buf)
                continue
            column = buf.tags["column"]
            records = buf.view(schema.dtype)
            top = records[:half].copy()
            bottom = records[half:].copy()
            if column + 1 < s:
                comm.send((column + 1) % P, bottom, tag=TAG_SHIFT4)
            else:
                state["pending_bottom"] = bottom
            if column == 0:
                buf.put(top)  # shifted column 0 (minus -inf half)
            else:
                _, prev_bottom = comm.recv(source=(column - 1) % P,
                                           tag=TAG_SHIFT4)
                node.compute_copy(prev_bottom.nbytes + top.nbytes)
                buf.put(np.concatenate([prev_bottom, top]))
            buf.tags["slot"] = buf.round
            ctx.convey(buf)

    def write(ctx, buf):
        if buf.size == 0:
            return buf
        # fixed r-record slots; partial slots for the sentinel columns
        rf_out.write(buf.tags["slot"] * r, buf.view(schema.dtype))
        return buf

    prog.add_pipeline(
        "pass3",
        [Stage.map("read", read), Stage.map("sort5", sort5),
         Stage.source_driven("shift", shift), Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=r * rec_bytes, rounds=spp + 1)


def _build_pass4_unshift(prog: FGProgram, node: Node, comm: Comm,
                         schema: RecordSchema, plan: ColumnsortPlan,
                         in_file: str, out_file: str, block_records: int,
                         nbuffers: int) -> None:
    """Steps 7-8: sort shifted columns, unshift via striping exchange."""
    P = comm.size
    r, s = plan.r, plan.s
    spp = plan.cols_per_node
    half = r // 2
    B = block_records
    rec_bytes = schema.record_bytes
    rf_in = RecordFile(node.disk, in_file, schema)
    out_local = RecordFile(node.disk, out_file, schema)

    def read(ctx, buf):
        t = buf.round
        m = t * P + comm.rank  # shifted column index
        if t == spp and comm.rank != P - 1:
            buf.clear()
            return buf
        if t == spp:
            m = s  # node P-1's extra shifted column
        count = _shifted_len(m, s, half, r)
        buf.put(rf_in.read(t * r, count))
        buf.tags["m"] = m
        return buf

    def sort7(ctx, buf):
        if buf.size == 0:
            return buf
        records = buf.view(schema.dtype)
        node.compute_sort(len(records))
        buf.put(schema.sort(records))
        # step 8: the sorted shifted column m occupies the contiguous
        # final positions [m*r - half, m*r - half + len)
        m = buf.tags["m"]
        buf.tags["g0"] = 0 if m == 0 else m * r - half
        return buf

    def stripe(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            records = (buf.view(schema.dtype) if buf.size
                       else schema.empty(0))
            g0 = buf.tags.get("g0", 0)
            length = len(records)
            groups: list[list] = [[] for _ in range(P)]
            metas: list[Optional[dict]] = [None] * P
            if length:
                first_block = g0 // B
                last_block = (g0 + length - 1) // B
                for gb in range(first_block, last_block + 1):
                    lo = max(gb * B, g0)
                    hi = min((gb + 1) * B, g0 + length)
                    owner = gb % P
                    groups[owner].append(records[lo - g0:hi - g0])
                    if metas[owner] is None:
                        metas[owner] = {"gb": gb, "off": lo - gb * B}
            for dest in range(P):
                payload = (np.concatenate(groups[dest]) if groups[dest]
                           else schema.empty(0))
                comm.send(dest, payload, tag=TAG_STRIPE4,
                          meta=metas[dest])
            buf.clear()
            placements = []
            fill = 0
            target = buf.data[:].view(schema.dtype)
            for _ in range(P):
                msg = comm.recv_msg(tag=TAG_STRIPE4)
                if len(msg.payload) == 0:
                    continue
                node.compute_copy(msg.payload.nbytes)
                target[fill:fill + len(msg.payload)] = msg.payload
                placements.append((msg.meta["gb"], msg.meta["off"],
                                   fill, len(msg.payload)))
                fill += len(msg.payload)
            buf.size = fill * rec_bytes
            buf.tags["placements"] = placements
            ctx.convey(buf)

    def write(ctx, buf):
        if buf.size == 0:
            return buf
        records = buf.view(schema.dtype)
        for gb, off, start, count in buf.tags["placements"]:
            out_local.write((gb // P) * B + off,
                            records[start:start + count])
        return buf

    prog.add_pipeline(
        "pass4",
        [Stage.map("read", read), Stage.map("sort7", sort7),
         Stage.source_driven("stripe", stripe), Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=2 * r * rec_bytes, rounds=spp + 1)


def run_csort4(node: Node, comm: Comm, schema: RecordSchema,
               config: Optional[CsortConfig] = None) -> Csort4Report:
    """Four-pass csort SPMD main (same config type as the 3-pass)."""
    if config is None:
        config = CsortConfig()
    kernel = node.kernel
    P = comm.size

    rf_in = RecordFile(node.disk, config.input_file, schema)
    totals = comm.allgather(rf_in.n_records)
    if len(set(totals)) != 1:
        raise ColumnsortShapeError(
            f"csort needs evenly distributed input; per-node sizes "
            f"{totals}")
    n_total = sum(totals)
    if config.s_override is not None:
        s = config.s_override
        r = n_total // s
        validate_shape(n_total, r, s, P)
        plan = ColumnsortPlan(n_total, r, s, P)
    else:
        plan = plan_columnsort(n_total, P)
    if config.out_block_records * P > plan.r:
        raise ColumnsortShapeError(
            f"stripe block of {config.out_block_records} records needs "
            f"P*block <= r = {plan.r}")

    # file lifetimes as in run_csort: each temporary goes after the
    # barrier of the pass that last reads it, the output is sized last
    RecordFile(node.disk, config.output_file, schema).delete()
    temp3 = config.temp2_file + "-shifted"

    times = []
    comm.barrier()
    last = kernel.now()

    prog1 = FGProgram(kernel, env={"node": node, "comm": comm},
                      name=f"csort4-p1@{comm.rank}")
    _build_permute_pass(prog1, node, comm, schema, plan,
                        in_file=config.input_file, in_fragmented=False,
                        out_file=config.temp1_file, routing="transpose",
                        nbuffers=config.nbuffers, name="pass1")
    prog1.run()
    comm.barrier()
    times.append(kernel.now() - last)
    last = kernel.now()

    prog2 = FGProgram(kernel, env={"node": node, "comm": comm},
                      name=f"csort4-p2@{comm.rank}")
    _build_permute_pass(prog2, node, comm, schema, plan,
                        in_file=config.temp1_file, in_fragmented=True,
                        out_file=config.temp2_file, routing="untranspose",
                        nbuffers=config.nbuffers, name="pass2")
    prog2.run()
    comm.barrier()
    times.append(kernel.now() - last)
    last = kernel.now()
    if config.cleanup_temps:
        node.disk.delete(config.temp1_file)

    prog3 = FGProgram(kernel, env={"node": node, "comm": comm},
                      name=f"csort4-p3@{comm.rank}")
    _build_pass3_shift(prog3, node, comm, schema, plan,
                       in_file=config.temp2_file, out_file=temp3,
                       nbuffers=config.nbuffers)
    prog3.run()
    comm.barrier()
    times.append(kernel.now() - last)
    last = kernel.now()
    if config.cleanup_temps:
        node.disk.delete(config.temp2_file)
    _size_output(node, comm, schema, config, n_total)

    prog4 = FGProgram(kernel, env={"node": node, "comm": comm},
                      name=f"csort4-p4@{comm.rank}")
    _build_pass4_unshift(prog4, node, comm, schema, plan,
                         in_file=temp3, out_file=config.output_file,
                         block_records=config.out_block_records,
                         nbuffers=config.nbuffers)
    prog4.run()
    comm.barrier()
    times.append(kernel.now() - last)

    if config.cleanup_temps:
        node.disk.delete(temp3)

    return Csort4Report(rank=comm.rank, pass_times=times, plan=plan)
