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

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.columnsort.csort import (
    CsortConfig,
    _build_permute_pass,
    _column_read_stage,
    _plan_run,
    _size_output,
    _stripe_stage,
    _write_placements_stage,
)
from repro.sorting.columnsort.steps import ColumnsortPlan
from repro.sorting.stages import run_pass, sort_stage

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
    half = r // 2
    rf_out = RecordFile(node.disk, out_file, schema)
    item = schema.item  # half-columns are copied as opaque items
    state: dict = {}

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
            items = buf.view(item)
            top = items[:half]   # stays in the buffer until it moves
            bottom = items[half:].copy().view(schema.dtype)
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
                # as csort's shift: top behind, then prev_bottom in front
                shifted = buf.fill(item, len(prev_bottom) + half)
                shifted[len(prev_bottom):] = top
                shifted[:len(prev_bottom)] = prev_bottom.view(item)
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
        [_column_read_stage(node, comm, schema, plan, in_file),
         sort_stage(node, schema, "sort5"),
         Stage.source_driven("shift", shift), Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=r * schema.record_bytes,
        rounds=spp + 1)


def _build_pass4_unshift(prog: FGProgram, node: Node, comm: Comm,
                         schema: RecordSchema, plan: ColumnsortPlan,
                         in_file: str, out_file: str, block_records: int,
                         nbuffers: int) -> None:
    """Steps 7-8: sort shifted columns, unshift via striping exchange."""
    P = comm.size
    r, s = plan.r, plan.s
    spp = plan.cols_per_node
    half = r // 2
    rf_in = RecordFile(node.disk, in_file, schema)

    def read(ctx, buf):
        t = buf.round
        m = t * P + comm.rank  # shifted column index
        if t == spp and comm.rank != P - 1:
            buf.clear()
            return buf
        if t == spp:
            m = s  # node P-1's extra shifted column
        count = _shifted_len(m, s, half, r)
        rf_in.read_into(t * r, buf.fill(schema.dtype, count))
        # step 8: once sorted, shifted column m occupies the contiguous
        # final positions [m*r - half, m*r - half + len)
        buf.tags["g0"] = 0 if m == 0 else m * r - half
        return buf

    prog.add_pipeline(
        "pass4",
        [Stage.map("read", read), sort_stage(node, schema, "sort7"),
         _stripe_stage(node, comm, schema, block_records, TAG_STRIPE4),
         _write_placements_stage(node, comm, schema, out_file, block_records)],
        nbuffers=nbuffers, buffer_bytes=2 * r * schema.record_bytes,
        rounds=spp + 1)


def run_csort4(node: Node, comm: Comm, schema: RecordSchema,
               config: Optional[CsortConfig] = None) -> Csort4Report:
    """Four-pass csort SPMD main (same config type as the 3-pass)."""
    if config is None:
        config = CsortConfig()
    plan = _plan_run(node, comm, schema, config)

    # file lifetimes as in run_csort: each temporary goes after the
    # barrier of the pass that last reads it, the output is sized last
    RecordFile(node.disk, config.output_file, schema).delete()
    temp3 = config.temp2_file + "-shifted"

    comm.barrier()
    times = [node.kernel.now()]

    times.append(run_pass(
        node, comm, f"csort4-p1@{comm.rank}",
        lambda prog: _build_permute_pass(
            prog, node, comm, schema, plan,
            in_file=config.input_file, in_fragmented=False,
            out_file=config.temp1_file, routing="transpose",
            nbuffers=config.nbuffers, name="pass1",
            sort_replicas=config.sort_replicas)))

    times.append(run_pass(
        node, comm, f"csort4-p2@{comm.rank}",
        lambda prog: _build_permute_pass(
            prog, node, comm, schema, plan,
            in_file=config.temp1_file, in_fragmented=True,
            out_file=config.temp2_file, routing="untranspose",
            nbuffers=config.nbuffers, name="pass2",
            sort_replicas=config.sort_replicas)))
    if config.cleanup_temps:
        node.disk.delete(config.temp1_file)

    times.append(run_pass(
        node, comm, f"csort4-p3@{comm.rank}",
        lambda prog: _build_pass3_shift(
            prog, node, comm, schema, plan, in_file=config.temp2_file,
            out_file=temp3, nbuffers=config.nbuffers)))
    if config.cleanup_temps:
        node.disk.delete(config.temp2_file)
    _size_output(node, comm, schema, config, plan.n_records)

    times.append(run_pass(
        node, comm, f"csort4-p4@{comm.rank}",
        lambda prog: _build_pass4_unshift(
            prog, node, comm, schema, plan, in_file=temp3,
            out_file=config.output_file,
            block_records=config.out_block_records,
            nbuffers=config.nbuffers)))

    if config.cleanup_temps:
        node.disk.delete(temp3)

    return Csort4Report(rank=comm.rank, plan=plan, pass_times=[
        end - start for start, end in zip(times, times[1:])])
