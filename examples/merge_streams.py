#!/usr/bin/env python
"""Intersecting pipelines with virtual stages (paper, Figure 5).

Merges many small sorted runs on one node into a single sorted stream:

* one *vertical* pipeline per run, whose read stages are **virtual** (one
  shared thread for all of them, sources and sinks auto-virtualized);
* a single **merge** stage where all vertical pipelines intersect the
  *horizontal* output pipeline — one thread, accepting per-pipeline;
* the horizontal pipeline's buffers are larger than the vertical ones,
  exactly as the paper suggests.

The reader pipelines and the merge protocol (refill a drained head, send
its spent buffer home, take an output buffer only once a record is
ready) come from the stage library, ``repro.sorting.stages`` — the same
two entries dsort's pass 2 is built from; what is written here is what
is this program's own.

Run:  python examples/merge_streams.py [n_runs]
"""

import sys

import numpy as np

from repro.cluster import Cluster, HardwareModel
from repro.core import FGProgram, Stage
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.stages import RunMerge, add_run_readers

SCHEMA = RecordSchema.paper_16()
RUN_RECORDS = 4096
VERTICAL_BLOCK = 512     # small buffers, many of them (vertical)
HORIZONTAL_BLOCK = 4096  # one big output stream (horizontal)


def main(n_runs: int = 64) -> None:
    cluster = Cluster(n_nodes=1,
                      hardware=HardwareModel.scaled_paper_cluster())
    node = cluster.node(0)
    rng = np.random.default_rng(3)

    # set up n_runs sorted runs on disk
    all_keys = []
    for i in range(n_runs):
        keys = np.sort(rng.integers(0, 2**63, size=RUN_RECORDS,
                                    dtype=np.uint64))
        all_keys.append(keys)
        RecordFile(node.disk, f"run.{i}", SCHEMA).poke(
            0, SCHEMA.from_keys(keys))
    out_file = RecordFile(node.disk, "merged", SCHEMA)

    def node_main(node, comm):
        prog = FGProgram(node.kernel, env={"node": node})
        merge_stage = Stage.source_driven("merge", None)
        # vertical pipelines v0..v63 = read{i} -> merge, over the whole
        # of each run file
        verticals = add_run_readers(
            prog, node, SCHEMA,
            [(f"run.{i}", 0, RUN_RECORDS) for i in range(n_runs)],
            merge_stage, VERTICAL_BLOCK)

        def write(ctx, buf):
            out_file.write(buf.tags["start"], buf.view(SCHEMA.dtype))
            return buf

        horizontal = prog.add_pipeline(
            "out", [merge_stage, Stage.map("write", write)], nbuffers=4,
            buffer_bytes=HORIZONTAL_BLOCK * SCHEMA.record_bytes,
            rounds=None)

        def merge(ctx):
            merging = RunMerge(ctx, node, SCHEMA, verticals)
            emitted = 0
            while (out := merging.next_output(horizontal)) is not None:
                filled = merging.fill(out.data.view(SCHEMA.dtype),
                                      HORIZONTAL_BLOCK)
                out.size = filled * SCHEMA.record_bytes
                out.tags["start"] = emitted
                ctx.convey(out)
                emitted += filled
            ctx.convey_caboose(horizontal)

        merge_stage.fn = merge
        prog.run()
        return prog.thread_count

    (threads,) = cluster.run(node_main)

    merged = out_file.read_all()["key"]
    expected = np.sort(np.concatenate(all_keys))
    assert np.array_equal(merged, expected), "merge produced wrong output"
    print(f"merged {n_runs} sorted runs x {RUN_RECORDS} records "
          f"-> {len(merged)} records, verified sorted")
    print(f"simulated time: {cluster.kernel.now() * 1e3:.2f} ms")
    print(f"FG threads used: {threads} "
          f"(virtual stages; a naive build would need ~{3 * n_runs + 4})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
