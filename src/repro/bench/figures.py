"""Experiment functions, one per paper table/figure (see DESIGN.md index)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.bench.harness import (
    BENCH_RECORDS_16B,
    PAPER_NODES,
    SortRun,
    benchmark_hardware,
    run_sort,
)
from repro.cluster import Cluster
from repro.core import FGProgram, Stage
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.workloads.distributions import PAPER_DISTRIBUTIONS

__all__ = [
    "figure8_experiment",
    "unbalanced_experiment",
    "buffer_sweep_experiment",
    "pool_size_experiment",
    "run_block_pipeline",
    "overlap_experiment",
    "virtual_stage_experiment",
]


def figure8_experiment(record_bytes: int,
                       n_nodes: int = PAPER_NODES,
                       n_per_node: Optional[int] = None,
                       distributions: Sequence[str] = PAPER_DISTRIBUTIONS,
                       seed: int = 0) -> dict[str, dict[str, SortRun]]:
    """Figure 8: dsort vs csort per-pass times on the four distributions.

    As in the paper, the 16-byte and 64-byte experiments hold the byte
    volume constant (64 GB there; ``BENCH_RECORDS_16B * 16`` bytes per
    node here), so ``n_per_node`` defaults to the byte-equivalent count.
    """
    schema = RecordSchema(record_bytes)
    if n_per_node is None:
        n_per_node = BENCH_RECORDS_16B * 16 // record_bytes
    results: dict[str, dict[str, SortRun]] = {}
    for dist in distributions:
        results[dist] = {
            "dsort": run_sort("dsort", dist, schema, n_nodes=n_nodes,
                              n_per_node=n_per_node, seed=seed),
            "csort": run_sort("csort", dist, schema, n_nodes=n_nodes,
                              n_per_node=n_per_node, seed=seed),
        }
    return results


def unbalanced_experiment(n_nodes: int = PAPER_NODES,
                          n_per_node: int = BENCH_RECORDS_16B,
                          seed: int = 0) -> dict[str, dict[str, SortRun]]:
    """Section VI: inputs designed to elicit highly unbalanced pass-1
    communication (every node streams to the same hot receiver at any
    given moment); 'even under these conditions, dsort fared well'."""
    schema = RecordSchema.paper_16()
    results: dict[str, dict[str, SortRun]] = {}
    for dist in ("sorted", "reverse_sorted", "single_hot_value"):
        results[dist] = {
            "dsort": run_sort("dsort", dist, schema, n_nodes=n_nodes,
                              n_per_node=n_per_node, seed=seed),
            "csort": run_sort("csort", dist, schema, n_nodes=n_nodes,
                              n_per_node=n_per_node, seed=seed),
        }
    return results


def buffer_sweep_experiment(block_sizes: Sequence[int] = (512, 1024,
                                                          2048, 4096),
                            n_nodes: int = PAPER_NODES,
                            n_per_node: int = BENCH_RECORDS_16B,
                            seed: int = 0) -> dict[int, SortRun]:
    """Section VI: 'all results reported here are for the best choices of
    buffer sizes' — sweep dsort's pass-1 block size."""
    schema = RecordSchema.paper_16()
    return {block: run_sort("dsort", "uniform", schema, n_nodes=n_nodes,
                            n_per_node=n_per_node, block_records=block,
                            seed=seed)
            for block in block_sizes}


def _seeded_block_files(cluster: Cluster, n_blocks: int,
                        block_records: int,
                        seed: int) -> tuple[RecordFile, RecordFile]:
    """Node 0's ``in`` file, holding ``n_blocks`` blocks of seeded random
    keys, and its (still empty) ``out`` file."""
    schema = RecordSchema.paper_16()
    disk = cluster.node(0).disk
    keys = np.random.default_rng(seed).integers(
        0, 2**63, size=n_blocks * block_records, dtype=np.uint64)
    rf_in = RecordFile(disk, "in", schema)
    rf_in.poke(0, schema.from_keys(keys))
    return rf_in, RecordFile(disk, "out", schema)


def run_block_pipeline(cluster: Cluster, *, nbuffers: int, n_blocks: int,
                       block_records: int, compute_reads: float = 1.0,
                       seed: int = 0, name: str = "fg",
                       pipeline: str = "p") -> None:
    """The read -> compute -> write program of Figures 1-2, on a one-node
    ``cluster``: a 3-stage FG pipeline over ``nbuffers`` buffers reads a
    seeded ``in`` file block by block, computes on each block for the
    modeled time of ``compute_reads`` block reads (and really sorts it —
    host work, no simulated time), and writes it to ``out``.  ``name``
    and ``pipeline`` name the program's threads in traces and metrics."""
    schema = RecordSchema.paper_16()
    rf_in, rf_out = _seeded_block_files(cluster, n_blocks, block_records,
                                        seed)
    compute_seconds = compute_reads * cluster.hardware.disk_time(
        block_records * schema.record_bytes)

    def main(node, comm):
        prog = FGProgram(node.kernel, env={"node": node}, name=name)

        def read(ctx, buf):
            rf_in.read_into(buf.round * block_records,
                            buf.fill(schema.dtype, block_records))
            return buf

        def compute(ctx, buf):
            node.compute(compute_seconds)
            buf.put(schema.sort(buf.view(schema.dtype)))
            return buf

        def write(ctx, buf):
            rf_out.write(buf.round * block_records, buf.view(schema.dtype))
            return buf

        prog.add_pipeline(
            pipeline, [Stage.map("read", read),
                       Stage.map("compute", compute),
                       Stage.map("write", write)],
            nbuffers=nbuffers,
            buffer_bytes=block_records * schema.record_bytes,
            rounds=n_blocks)
        prog.run()

    cluster.run(main)


def pool_size_experiment(pool_sizes: Sequence[int] = (1, 2, 3, 4, 8),
                         n_blocks: int = 32,
                         block_records: int = 4096) -> dict[int, float]:
    """FG's claim that "only a small pool containing a fixed number of
    buffers needs to be allocated": sweep the pool size of a 3-stage
    pipeline.  One buffer serializes the stages; a handful restores full
    overlap; beyond that, more memory buys nothing."""
    results: dict[int, float] = {}
    for nbuffers in pool_sizes:
        cluster = Cluster(n_nodes=1, hardware=benchmark_hardware())
        run_block_pipeline(cluster, nbuffers=nbuffers, n_blocks=n_blocks,
                           block_records=block_records)
        results[nbuffers] = cluster.kernel.now()
    return results


def overlap_experiment(n_blocks: int = 32,
                       block_records: int = 4096) -> dict[str, float]:
    """The FG headline claim (Figures 1-2): a pipeline overlaps I/O with
    computation, so elapsed time approaches the bottleneck stage rather
    than the sum of stages.

    One node reads a block, computes on it for one block-read-equivalent,
    and writes it back — serially, then as a 3-stage FG pipeline (the
    pool-size sweep's program at four buffers).
    """
    cluster = Cluster(n_nodes=1, hardware=benchmark_hardware())
    rf_in, rf_out = _seeded_block_files(cluster, n_blocks, block_records,
                                        seed=0)
    compute_seconds = cluster.hardware.disk_time(
        block_records * rf_in.schema.record_bytes)

    def serial_main(node, comm):
        for b in range(n_blocks):
            records = rf_in.read(b * block_records, block_records)
            node.compute(compute_seconds)
            rf_out.write(b * block_records, records)

    cluster.run(serial_main)
    results = {"serial": cluster.kernel.now(),
               "pipeline": pool_size_experiment(
                   (4,), n_blocks, block_records)[4]}
    results["speedup"] = results["serial"] / results["pipeline"]
    return results


def virtual_stage_experiment(ks: Sequence[int] = (4, 32, 256)) -> \
        dict[int, dict[str, int]]:
    """Figure 5(b): thread count for k pipelines, with and without
    virtual stages — counted (``plain``/``virtual``: FG threads, i.e.
    processes the program spawned) and measured (``*_os_threads``: OS
    threads the kernel started, driver process included)."""
    from repro.sim import VirtualTimeKernel

    out: dict[int, dict[str, int]] = {}
    for k in ks:
        counts = {}
        for virtual in (True, False):
            kernel = VirtualTimeKernel()
            prog = FGProgram(kernel)
            for i in range(k):
                stage = Stage.map(f"acq{i}", lambda ctx, b: b,
                                  virtual=virtual, virtual_group="acquire")
                prog.add_pipeline(f"v{i}", [stage], nbuffers=1,
                                  buffer_bytes=16, rounds=2)
            kernel.spawn(prog.run, name="driver")
            kernel.run()
            mode = "virtual" if virtual else "plain"
            counts[mode] = prog.thread_count
            counts[f"{mode}_os_threads"] = kernel.threads_started
        out[k] = counts
    return out
