#!/usr/bin/env python
"""Intersecting pipelines with virtual stages (paper, Figure 5).

Merges many small sorted runs on one node into a single sorted stream:

* one *vertical* pipeline per run, whose read stages are **virtual** (one
  shared thread for all of them, sources and sinks auto-virtualized);
* a single **merge** stage where all vertical pipelines intersect the
  *horizontal* output pipeline — one thread, accepting per-pipeline;
* the horizontal pipeline's buffers are larger than the vertical ones,
  exactly as the paper suggests.

Run:  python examples/merge_streams.py [n_runs]
"""

import sys

import numpy as np

from repro.cluster import Cluster, HardwareModel
from repro.core import FGProgram, Stage
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.merge import BlockMerger

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
    run_files = []
    all_keys = []
    for i in range(n_runs):
        keys = np.sort(rng.integers(0, 2**63, size=RUN_RECORDS,
                                    dtype=np.uint64))
        all_keys.append(keys)
        rf = RecordFile(node.disk, f"run.{i}", SCHEMA)
        rf.poke(0, SCHEMA.from_keys(keys))
        run_files.append(rf)
    out_file = RecordFile(node.disk, "merged", SCHEMA)

    def node_main(node, comm):
        prog = FGProgram(node.kernel, env={"node": node})
        merge_stage = Stage.source_driven("merge", None)
        verticals = []
        for i, rf in enumerate(run_files):
            def make_read(rf):
                def read(ctx, buf):
                    buf.put(rf.read(buf.round * VERTICAL_BLOCK,
                                    VERTICAL_BLOCK))
                    return buf
                return read

            stage = Stage.map(f"read{i}", make_read(rf), virtual=True,
                              virtual_group="read")
            pipeline = prog.add_pipeline(
                f"v{i}", [stage, merge_stage], nbuffers=2,
                buffer_bytes=VERTICAL_BLOCK * SCHEMA.record_bytes,
                rounds=RUN_RECORDS // VERTICAL_BLOCK)
            verticals.append(pipeline)

        def write(ctx, buf):
            out_file.write(buf.tags["start"], buf.view(SCHEMA.dtype))
            return buf

        horizontal = prog.add_pipeline(
            "out", [merge_stage, Stage.map("write", write)], nbuffers=4,
            buffer_bytes=HORIZONTAL_BLOCK * SCHEMA.record_bytes,
            rounds=None)

        def merge(ctx):
            merger = BlockMerger(SCHEMA, range(n_runs))
            head_buf = {}

            def refill():
                for i in sorted(merger.needs()):
                    if i in head_buf:
                        ctx.convey(head_buf.pop(i))
                    nxt = ctx.accept(verticals[i])
                    if nxt.is_caboose:
                        ctx.forward(nxt)
                        merger.finish_run(i)
                    else:
                        merger.feed(i, nxt.view(SCHEMA.dtype))
                        head_buf[i] = nxt

            refill()
            emitted = 0
            while not merger.exhausted:
                if not merger.ready:
                    # only take an output buffer once a record is
                    # available: a refill that exhausts the merger would
                    # otherwise strand an accepted, empty buffer here
                    refill()
                    continue
                out = ctx.accept(horizontal)
                target = out.capacity // SCHEMA.record_bytes
                records = out.data.view(SCHEMA.dtype)
                filled = 0
                while filled < target and not merger.exhausted:
                    if not merger.ready:
                        refill()
                        continue
                    n = merger.merge_into(records, filled, target - filled)
                    node.compute_merge(n)
                    filled += n
                if filled:
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
