"""The resident set follows the working set — the contract, measured.

Everything here reads ``tracemalloc`` with the cyclic collector *off*:
memory must come back by reference count when its last reader is done,
not whenever generation 2 is next collected.

(a) A program's pools end at ``wait()``: with the program object still
    referenced, traced bytes are back at the pre-``start()`` reading on
    every exit path, and ``aux`` costs nothing until a stage touches it.
(b) ``run_sort``'s traced peak over its dataset stays under a bound the
    parent commit exceeds.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import run_sort
from repro.core import FGProgram, Stage
from repro.errors import PipelineFailed
from repro.pdm.records import RecordSchema
from repro.sim import VirtualTimeKernel

MIB = 1 << 20
#: what a finished program may keep: channels, contexts, stats, process
#: records, detector state — never a buffer
SLACK = 64 * 1024
NBUFFERS = 8


@pytest.fixture(autouse=True)
def traced_without_collector():
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        gc.enable()


def current() -> int:
    return tracemalloc.get_traced_memory()[0]


def add_pool(prog, name, stage_fn, rounds=12):
    """One pipeline of eight 1 MiB buffers declared with ``aux``; twelve
    rounds, so every buffer of the pool makes a trip."""
    return prog.add_pipeline(name, [Stage.map(f"{name}-work", stage_fn)],
                             nbuffers=NBUFFERS, buffer_bytes=MIB,
                             rounds=rounds, aux_buffers=True)


def leaves_aux_alone(ctx, buf):
    buf.put(np.full(16, buf.round, dtype=np.uint8))
    return buf


def writes_aux(ctx, buf):
    buf.aux[:16] = buf.round
    return buf


def run_measured(kernel, build, expect=None):
    """Run ``build(kernel)``'s program from a driver process; returns
    the program (still referenced — that is the point), traced bytes
    before ``start()`` and after ``run()``, and the peak in between."""
    seen = {}

    def driver():
        prog = seen["prog"] = build(kernel)
        tracemalloc.reset_peak()
        seen["before"] = current()
        if expect is None:
            prog.run()
        else:
            with pytest.raises(expect):
                prog.run()
        seen["after"], seen["peak"] = tracemalloc.get_traced_memory()

    kernel.spawn(driver, name="driver")
    kernel.run()
    return (seen["prog"], seen["before"], seen["after"],
            seen["peak"] - seen["before"])


@pytest.mark.parametrize("stage_fn, arrays_per_buffer",
                         [(leaves_aux_alone, 1), (writes_aux, 2)])
def test_pools_end_at_wait_and_aux_costs_nothing_untouched(
        stage_fn, arrays_per_buffer):
    def build(kernel):
        prog = FGProgram(kernel, name="pools")
        add_pool(prog, "p", stage_fn)
        return prog

    prog, before, after, peak = run_measured(VirtualTimeKernel(), build)
    assert abs(after - before) <= SLACK
    pool = NBUFFERS * MIB * arrays_per_buffer
    assert pool <= peak <= pool + SLACK
    # the declaration is what the accounting reads, touched or not
    assert prog.total_buffer_bytes == NBUFFERS * MIB * 2
    assert all(buf.capacity == 0
               for buf in prog.buffers_of(prog.pipelines[0]))


def test_pools_end_at_wait_when_a_stage_raises():
    """``PipelineFailed`` leaves through the same door: the poisoned
    pipeline's buffers are drained to the pool, then the pool goes."""
    def explode(ctx, buf):
        if buf.round == 5:
            raise RuntimeError("stage blew up")
        return writes_aux(ctx, buf)

    def build(kernel):
        prog = FGProgram(kernel, name="poisoned")
        add_pool(prog, "bad", explode)
        return prog

    _, before, after, peak = run_measured(VirtualTimeKernel(), build,
                                          expect=PipelineFailed)
    assert abs(after - before) <= SLACK
    assert peak >= NBUFFERS * MIB   # the pool really was live


def test_each_wait_frees_only_its_own_program():
    """Two programs on one kernel: the short one's ``wait()`` gives back
    its pool while the long one's buffers stay live and usable."""
    kernel = VirtualTimeKernel()
    seen = {}

    def slow(ctx, buf):
        kernel.sleep(1.0)
        return leaves_aux_alone(ctx, buf)

    def long_driver():
        long_prog = seen["long"] = FGProgram(kernel, name="long")
        add_pool(long_prog, "l", slow)
        long_prog.run()
        seen["after_long"] = current()

    def short_driver():
        kernel.sleep(2.5)   # the long program is mid-run by now
        short_prog = seen["short"] = FGProgram(kernel, name="short")
        add_pool(short_prog, "s", writes_aux, rounds=8)
        before = current()
        short_prog.run()
        seen["short_delta"] = current() - before
        seen["long_finished"] = seen["long"].finished
        seen["long_capacities"] = [
            buf.capacity for buf in
            seen["long"].buffers_of(seen["long"].pipelines[0])]

    before = current()
    kernel.spawn(long_driver, name="long-driver")
    kernel.spawn(short_driver, name="short-driver")
    kernel.run()
    assert abs(seen["short_delta"]) <= SLACK
    assert not seen["long_finished"]
    assert seen["long_capacities"] == [MIB] * NBUFFERS
    assert abs(seen["after_long"] - before) <= 2 * SLACK


#: (sorter, records per node, record bytes, bound, parent commit's ratio)
SORT_PEAKS = [
    ("csort", 65536, 16, 6.2, 8.77),
    ("csort", 16384, 64, 5.5, 8.10),
    ("csort4", 65536, 16, 5.3, 9.41),
    ("dsort", 32768, 16, 6.5, 8.30),
]


@pytest.mark.parametrize("sorter, n_per_node, record_bytes, bound, parent",
                         SORT_PEAKS)
def test_run_sort_traced_peak_over_dataset(sorter, n_per_node,
                                           record_bytes, bound, parent):
    """``tracemalloc`` peak of one four-node ``run_sort`` at seed 3, in
    units of the dataset's bytes.  Measured at this change: 5.76, 5.10,
    4.91 and 6.04 (bounds sit ~8 % above); at the parent 8.77, 8.10,
    9.41 and 8.30, so each case fails there.

    What sets each peak, in dataset units: for the csorts the *last*
    pass — input 1 + manifest keys 0.5 (0.125 at 64-byte records) + the
    one temporary still being read 1 + the output, sized just before
    that pass, 1 + the pass's live pools (at this small scale 1.5 for
    csort's six-deep pass 3, 1.0 for csort4's pass 4) + 0.4-0.8 of
    messages and sort copies in flight; no finished program's pool, no
    earlier temporary, no output before its pass.  For dsort, pass 2:
    input + manifest + the sorted runs + the output stripe, which grows
    by appending (``bytearray`` over-allocates as it grows — ROADMAP
    4(d)'s open finding) + the merge pools.  The streaming verifier
    stays below all of them (3.7 / 2.9 / 3.5 / 4.6): over the files it
    checks it holds ~3.5 MB — a 1 MiB chunk and its key and stamp
    columns — whatever the file size.
    """
    dataset = 4 * n_per_node * record_bytes
    base = current()
    tracemalloc.reset_peak()
    run = run_sort(sorter, "uniform", RecordSchema(record_bytes),
                   n_nodes=4, n_per_node=n_per_node, seed=3)
    assert run.verified
    ratio = (tracemalloc.get_traced_memory()[1] - base) / dataset
    assert bound < parent
    assert ratio <= bound, (
        f"{sorter} {n_per_node}x{record_bytes}B: traced peak is "
        f"{ratio:.2f}x the dataset (bound {bound}, parent {parent})")
