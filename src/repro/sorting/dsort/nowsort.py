"""NOW-Sort-style variant (paper, Section VII related work).

NOW-Sort shares dsort's two-pass design but differs in two ways the paper
calls out: it "assumes that the splitters are known in advance and does
not output the final sorted result in PDM ordering".  This module
implements that variant on the same substrate so the trade-offs can be
measured:

* **no sampling phase** — splitters are supplied (or default to evenly
  spaced keys, NOW-Sort's uniform-input assumption);
* **pass 1** is dsort's pass 1 verbatim (partition + distribute into
  sorted runs);
* **pass 2** merges each node's runs into one *local* sorted file, with
  no load-balancing exchange and no striping.

The flip side, visible in the benchmarks: with fixed splitters the
partition sizes track the key distribution, so anything non-uniform
(std-normal, Poisson, all-equal) piles records onto a few nodes, and the
most loaded disk sets the pace.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.dsort.dsort import DsortConfig
from repro.sorting.dsort.pass1 import build_pass1
from repro.sorting.dsort.sampling import Splitters
from repro.sorting.stages import RunMerge, add_run_readers, run_pass

__all__ = ["NowSortReport", "run_nowsort", "uniform_splitters"]


def uniform_splitters(n_partitions: int) -> Splitters:
    """Evenly spaced fixed splitters over the whole uint64 key space —
    NOW-Sort's implicit assumption that keys are uniform."""
    if n_partitions < 1:
        raise SortError("need at least one partition")
    step = 2**64 // n_partitions
    keys = np.array([(i + 1) * step for i in range(n_partitions - 1)],
                    dtype=np.uint64)
    zeros = np.zeros(n_partitions - 1, dtype=np.int64)
    return Splitters(keys=keys, nodes=zeros, indices=zeros)


@dataclasses.dataclass
class NowSortReport:
    """Per-node result of a NOW-Sort-style run."""

    rank: int
    pass1_time: float
    pass2_time: float
    partition_records: int
    n_runs: int

    @property
    def total_time(self) -> float:
        return self.pass1_time + self.pass2_time


def _build_local_merge_pass(prog: FGProgram, node: Node,
                            schema: RecordSchema, runs, output_file: str,
                            vertical_block_records: int,
                            out_block_records: int, nbuffers: int) -> None:
    """Pass 2 without striping: merge straight to a local sorted file."""
    rec_bytes = schema.record_bytes
    outB = out_block_records

    merge_stage = Stage.source_driven("merge", None)
    verticals = add_run_readers(
        prog, node, schema, [(name, 0, n) for name, n in runs],
        merge_stage, vertical_block_records)

    out_file = RecordFile(node.disk, output_file, schema)

    def write(ctx, buf):
        out_file.write(buf.tags["start"], buf.view(schema.dtype))
        return buf

    horizontal = prog.add_pipeline(
        "merge-out", [merge_stage, Stage.map("write", write)],
        nbuffers=nbuffers, buffer_bytes=outB * rec_bytes, rounds=None)

    def merge(ctx):
        merging = RunMerge(ctx, node, schema, verticals)
        emitted = 0
        while (out := merging.next_output(horizontal)) is not None:
            filled = merging.fill(out.data.view(schema.dtype), outB)
            out.size = filled * rec_bytes
            out.tags["start"] = emitted
            ctx.convey(out)
            emitted += filled
        ctx.convey_caboose(horizontal)

    merge_stage.fn = merge


def run_nowsort(node: Node, comm: Comm, schema: RecordSchema,
                config: Optional[DsortConfig] = None,
                splitters: Optional[Splitters] = None) -> NowSortReport:
    """NOW-Sort-style SPMD main: fixed splitters, local (non-PDM) output.

    After completion, node i's ``output`` file is sorted and every key on
    node i is <= every key on node i+1 — the concatenation of local files
    is the sorted sequence, but it is not striped and (for non-uniform
    keys) not balanced.
    """
    if config is None:
        config = DsortConfig()
    if splitters is None:
        splitters = uniform_splitters(comm.size)
    if splitters.n_partitions != comm.size:
        raise SortError(
            f"need {comm.size} partitions, got {splitters.n_partitions}")
    comm.barrier()
    t0 = node.kernel.now()
    state: dict = {}
    t1 = run_pass(
        node, comm, f"nowsort-p1@{comm.rank}",
        lambda prog: build_pass1(
            prog, node, comm, schema, splitters,
            input_file=config.input_file, run_prefix=config.run_prefix,
            block_records=config.block_records, nbuffers=config.nbuffers,
            state=state, sort_replicas=config.sort_replicas))

    runs = state.get("runs", [])
    RecordFile(node.disk, config.output_file, schema).delete()
    t2 = run_pass(
        node, comm, f"nowsort-p2@{comm.rank}",
        lambda prog: _build_local_merge_pass(
            prog, node, schema, runs, output_file=config.output_file,
            vertical_block_records=config.vertical_block_records,
            out_block_records=config.out_block_records,
            nbuffers=config.nbuffers))

    for run_name, _ in runs:
        node.disk.delete(run_name)

    local_total = sum(n for _, n in runs)
    return NowSortReport(rank=comm.rank, pass1_time=t1 - t0,
                         pass2_time=t2 - t1,
                         partition_records=local_total, n_runs=len(runs))
