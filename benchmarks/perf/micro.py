"""Isolated unit costs of single layers, through public functions only.

Each cost is the median of interleaved batches (batch b of every cost
runs before batch b+1 of any), so slow phases of a shared host spread
over all of them instead of landing on one.  A batch is sized to take
tens of milliseconds; its value is host time per operation in the unit
the metric's name ends with.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.apps.groupby import KeyValueSchema
from repro.bench.harness import benchmark_hardware, run_sort
from repro.check import lint_program, program_effects
from repro.cluster import Cluster
from repro.core import FGProgram, Stage
from repro.pdm.journal import Journal
from repro.pdm.records import RecordSchema
from repro.plan import ProgramGraph
from repro.prov import trace_digest
from repro.sim import Channel, VirtualTimeKernel
from repro.sorting.merge import BlockMerger

clock = time.perf_counter
SCHEMA = RecordSchema.paper_16()


# -- sim ----------------------------------------------------------------


def switch_ns() -> float:
    """Two processes ping-pong on 1 µs sleeps: host ns per switch."""
    kernel = VirtualTimeKernel()
    n = 1500

    def pinger() -> None:
        for _ in range(n):
            kernel.sleep(1e-6)

    kernel.spawn(pinger)
    kernel.spawn(pinger)
    t = clock()
    kernel.run()
    return (clock() - t) / kernel.switches * 1e9


def spawn_us() -> float:
    """Spawn-and-finish of trivial processes (one OS thread each)."""
    kernel = VirtualTimeKernel()
    n = 150
    t = clock()
    for _ in range(n):
        kernel.spawn(lambda: None)
    kernel.run()
    return (clock() - t) / n * 1e6


def channel_putget_ns(capacity: Any) -> Callable[[], float]:
    def batch() -> float:
        kernel = VirtualTimeKernel()
        chan: Channel = Channel(kernel, capacity)
        n = 1000

        def producer() -> None:
            for i in range(n):
                chan.put(i)

        def consumer() -> None:
            for _ in range(n):
                chan.get()

        kernel.spawn(producer)
        kernel.spawn(consumer)
        t = clock()
        kernel.run()
        return (clock() - t) / n * 1e9
    return batch


# -- core / check --------------------------------------------------------


def buffer_cycle_us() -> float:
    """One buffer through a 2-stage no-op pipeline (source → a → b →
    sink → recycle); lint is off so only buffer movement is timed."""
    kernel = VirtualTimeKernel()
    rounds = 300
    elapsed = []

    def main() -> None:
        prog = FGProgram(kernel, name="cycle", lint=False)
        prog.add_pipeline(
            "p", [Stage.map("a", lambda ctx, buf: buf),
                  Stage.map("b", lambda ctx, buf: buf)],
            nbuffers=4, buffer_bytes=64, rounds=rounds)
        t = clock()
        prog.run()
        elapsed.append(clock() - t)

    kernel.spawn(main)
    kernel.run()
    return elapsed[0] / rounds * 1e6


def capture_dsort_pass1() -> tuple[FGProgram, Any]:
    """A real dsort pass-1 program (rank 0) and a real event trace, taken
    from one small observed dsort run."""
    captured: list[FGProgram] = []
    original = FGProgram.start

    def start(self: FGProgram) -> Any:
        if self.name.startswith("dsort-p1@0"):
            captured.append(self)
        return original(self)

    FGProgram.start = start  # type: ignore[method-assign]
    try:
        run = run_sort("dsort", "uniform", SCHEMA, n_nodes=2,
                       n_per_node=4096, seed=0, observe=True)
    finally:
        FGProgram.start = original  # type: ignore[method-assign]
    return captured[0], run.tracer


def start_analysis_ms(prog: FGProgram) -> Callable[[], float]:
    """The analysis FGProgram.start() pays for: graph IR + lint + effect
    analysis + structural fingerprint of a dsort-pass-1-shaped program."""
    def batch() -> float:
        n = 4
        t = clock()
        for _ in range(n):
            graph = ProgramGraph.from_program(prog)
            lint_program(prog)
            program_effects(graph)
            graph.fingerprint()
        return (clock() - t) / n * 1e3
    return batch


# -- sorting -------------------------------------------------------------


def _uniform_runs(k: int, total: int) -> list[np.ndarray]:
    rng = np.random.default_rng(k)
    per_run = total // k
    return [SCHEMA.sort(SCHEMA.from_keys(rng.integers(
        0, np.iinfo(np.uint64).max, size=per_run, dtype=np.uint64)))
        for _ in range(k)]


def _dup_runs(k: int, n_keys: int) -> list[np.ndarray]:
    """Runs as groupby's pass 1 leaves them: each holds distinct sorted
    keys from one small key space, so heads tie across runs all the time."""
    rng = np.random.default_rng(k)
    schema = KeyValueSchema()
    runs = []
    for _ in range(k):
        keys = np.unique(rng.integers(0, n_keys, size=2 * n_keys,
                                      dtype=np.uint64))
        runs.append(schema.make(keys, np.ones(len(keys), dtype=np.uint64)))
    return runs


def merge_ns_per_record(schema: RecordSchema, runs: list[np.ndarray],
                        block: int = 512,
                        out_block: int = 1024) -> Callable[[], float]:
    """Drive BlockMerger the way the merge stages do: one head block per
    run, merge into an output block, refill whichever run ran dry."""
    total = sum(len(r) for r in runs)

    def batch() -> float:
        merger = BlockMerger(schema, range(len(runs)))
        fed = [0] * len(runs)
        out = np.zeros(out_block, dtype=runs[0].dtype)
        merged = 0
        t = clock()
        while not merger.exhausted:
            for i in sorted(merger.needs()):
                if fed[i] >= len(runs[i]):
                    merger.finish_run(i)
                else:
                    merger.feed(i, runs[i][fed[i]:fed[i] + block])
                    fed[i] += block
            if merger.exhausted:
                break
            merged += merger.merge_into(out, 0, out_block)
        dt = clock() - t
        assert merged == total
        return dt / total * 1e9
    return batch


def block_sort_ns_per_record() -> float:
    rng = np.random.default_rng(1)
    blocks = [SCHEMA.from_keys(rng.integers(
        0, np.iinfo(np.uint64).max, size=4096, dtype=np.uint64))
        for _ in range(16)]
    t = clock()
    for block in blocks:
        SCHEMA.sort(block)
    return (clock() - t) / (16 * 4096) * 1e9


# -- pdm / cluster / prov -------------------------------------------------


def _one_node(main: Callable[[Any, Any], None]) -> float:
    cluster = Cluster(n_nodes=1, hardware=benchmark_hardware())
    t = clock()
    cluster.run(main)
    return clock() - t


def journal_append_us() -> float:
    n = 150

    def main(node: Any, comm: Any) -> None:
        journal = Journal(node.disk, "bench.journal")
        for i in range(n):
            journal.append({"blocks": [i]})

    return _one_node(main) / n * 1e6


def disk_op_us() -> float:
    n = 150
    data = np.zeros(4096, dtype=np.uint8)

    def main(node: Any, comm: Any) -> None:
        for i in range(n):
            node.disk.write("bench.dat", i * 4096, data)
            node.disk.read("bench.dat", i * 4096, 4096)

    return _one_node(main) / (2 * n) * 1e6


def net_msg_us() -> float:
    n = 150
    payload = np.zeros(4096, dtype=np.uint8)
    cluster = Cluster(n_nodes=2, hardware=benchmark_hardware())

    def main(node: Any, comm: Any) -> None:
        if comm.rank == 0:
            for _ in range(n):
                comm.send(1, payload, tag=1)
        else:
            for _ in range(n):
                comm.recv(0, tag=1)

    t = clock()
    cluster.run(main)
    return (clock() - t) / n * 1e6


def trace_digest_ms_per_kevent(tracer: Any) -> Callable[[], float]:
    def batch() -> float:
        n = 4
        t = clock()
        for _ in range(n):
            trace_digest(tracer)
        return (clock() - t) / n / (len(tracer.events) / 1000.0) * 1e3
    return batch


def run_all(batches: int, scale: Any) -> dict[str, float]:
    """name -> median over the batches; units are in the names.  Each
    round of batches is scaled to the reference CPU speed by the
    calibration loops on either side of it (``scale``: a calib.Scale)."""
    prog, tracer = capture_dsort_pass1()
    costs: dict[str, Callable[[], float]] = {
        "sim.switch_ns": switch_ns,
        "sim.spawn_us": spawn_us,
        "sim.channel_putget_ns.cap0": channel_putget_ns(0),
        "sim.channel_putget_ns.cap1": channel_putget_ns(1),
        "sim.channel_putget_ns.capinf": channel_putget_ns(None),
        "core.buffer_cycle_us": buffer_cycle_us,
        "check.start_analysis_ms": start_analysis_ms(prog),
        "sorting.merge_ns_per_record.k8_uniform":
            merge_ns_per_record(SCHEMA, _uniform_runs(8, 8192)),
        "sorting.merge_ns_per_record.k32_uniform":
            merge_ns_per_record(SCHEMA, _uniform_runs(32, 8192), block=64),
        "sorting.merge_ns_per_record.k16_dup":
            merge_ns_per_record(KeyValueSchema(), _dup_runs(16, 512)),
        "sorting.block_sort_ns_per_record": block_sort_ns_per_record,
        "pdm.journal_append_us": journal_append_us,
        "cluster.disk_op_us": disk_op_us,
        "cluster.net_msg_us": net_msg_us,
        "prov.trace_digest_ms_per_kevent": trace_digest_ms_per_kevent(tracer),
    }
    samples: dict[str, list[float]] = {name: [] for name in costs}
    for _ in range(batches):
        scale.next()  # a fresh loop timing right before the round
        raw = {name: batch() for name, batch in costs.items()}
        factor = scale.next()
        for name, value in raw.items():
            samples[name].append(value * factor)
    return {name: statistics.median(vals) for name, vals in samples.items()}
