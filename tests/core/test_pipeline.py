"""Tests for single linear FG pipelines (paper Figures 1-2).

Covers buffer flow, recycling through a small pool, caboose shutdown for
both known and unknown round counts, and the latency-overlap property that
is FG's reason to exist.
"""

import numpy as np
import pytest

from repro.core import Buffer, FGProgram, Stage
from repro.errors import PipelineStructureError, ProcessFailed
from repro.sim import VirtualTimeKernel


def run_program(build):
    """Create kernel, let ``build(kernel)`` return an FGProgram, run it."""
    kernel = VirtualTimeKernel()
    prog = build(kernel)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    return kernel, prog


def test_buffers_flow_in_round_order():
    seen = []

    def build(kernel):
        prog = FGProgram(kernel)

        def fill(ctx, buf):
            buf.put(np.full(4, buf.round, dtype=np.uint8))
            return buf

        def record(ctx, buf):
            seen.append((buf.round, int(buf.view(np.uint8)[0])))
            return buf

        prog.add_pipeline("p", [Stage.map("fill", fill),
                                Stage.map("record", record)],
                          nbuffers=2, buffer_bytes=16, rounds=5)
        return prog

    run_program(build)
    assert seen == [(i, i) for i in range(5)]


def test_rounds_can_greatly_exceed_pool_size():
    """The paper: 'The number of rounds ... can greatly exceed the number
    of buffers' thanks to sink-to-source recycling."""
    counted = []

    def build(kernel):
        prog = FGProgram(kernel)
        prog.add_pipeline(
            "p", [Stage.map("count", lambda ctx, b: counted.append(b.round) or b)],
            nbuffers=2, buffer_bytes=8, rounds=100)
        return prog

    _, prog = run_program(build)
    assert counted == list(range(100))
    # exactly the pool's buffers circulated
    pipeline = prog.pipelines[0]
    assert len(prog.buffers_of(pipeline)) == 2


def test_pool_buffers_are_reused_not_reallocated():
    ids = set()

    def build(kernel):
        prog = FGProgram(kernel)

        def watch(ctx, buf):
            ids.add(id(buf))
            return buf

        prog.add_pipeline("p", [Stage.map("watch", watch)],
                          nbuffers=3, buffer_bytes=8, rounds=30)
        return prog

    run_program(build)
    assert len(ids) == 3


def test_pipeline_overlaps_stage_latencies():
    """Three stages, each 1 s per buffer, 10 buffers: a pipeline finishes
    in fill+drain (10 + 2) seconds, not the serial 30."""

    def build(kernel):
        prog = FGProgram(kernel)

        def work(ctx, buf):
            kernel.sleep(1.0)
            return buf

        prog.add_pipeline(
            "p",
            [Stage.map(f"s{i}", work) for i in range(3)],
            nbuffers=3, buffer_bytes=8, rounds=10)
        return prog

    kernel, _ = run_program(build)
    assert kernel.now() == pytest.approx(12.0)


def test_small_pool_throttles_pipeline():
    """With one buffer there is no overlap: 3 stages x 1 s x 5 rounds."""

    def build(kernel):
        prog = FGProgram(kernel)

        def work(ctx, buf):
            kernel.sleep(1.0)
            return buf

        prog.add_pipeline(
            "p", [Stage.map(f"s{i}", work) for i in range(3)],
            nbuffers=1, buffer_bytes=8, rounds=5)
        return prog

    kernel, _ = run_program(build)
    assert kernel.now() == pytest.approx(15.0)


def test_unknown_rounds_stage_declares_eos():
    """rounds=None: the first stage conveys the caboose when done (the
    shape of dsort's receive pipeline)."""
    downstream = []

    def build(kernel):
        prog = FGProgram(kernel)
        state = {"taken": 0}

        def take(ctx):
            pipeline = ctx.pipelines[0]
            while state["taken"] < 7:
                buf = ctx.accept()
                assert not buf.is_caboose
                buf.put(np.full(2, state["taken"], dtype=np.uint8))
                state["taken"] += 1
                ctx.convey(buf)
            ctx.convey_caboose(pipeline)

        def sink_side(ctx, buf):
            downstream.append(int(buf.view(np.uint8)[0]))
            return buf

        prog.add_pipeline("p", [Stage.source_driven("take", take),
                                Stage.map("rec", sink_side)],
                          nbuffers=3, buffer_bytes=8, rounds=None)
        return prog

    run_program(build)
    assert downstream == list(range(7))


def test_zero_rounds_pipeline_completes_immediately():
    def build(kernel):
        prog = FGProgram(kernel)
        prog.add_pipeline(
            "p", [Stage.map("never", lambda ctx, b: pytest.fail("ran"))],
            nbuffers=1, buffer_bytes=8, rounds=0)
        return prog

    kernel, _ = run_program(build)
    assert kernel.now() == 0.0


def test_map_stage_can_drop_buffers():
    """Returning None drops the buffer (it is simply not conveyed; the
    pool shrinks for the rest of the run)."""
    seen = []

    def build(kernel):
        prog = FGProgram(kernel)

        def maybe_drop(ctx, buf):
            if buf.round == 1:
                return None
            return buf

        def record(ctx, buf):
            seen.append(buf.round)
            return buf

        prog.add_pipeline("p", [Stage.map("drop", maybe_drop),
                                Stage.map("rec", record)],
                          nbuffers=4, buffer_bytes=8, rounds=4)
        return prog

    run_program(build)
    assert seen == [0, 2, 3]


def test_buffer_tags_travel_with_buffer():
    seen = []

    def build(kernel):
        prog = FGProgram(kernel)

        def tag(ctx, buf):
            buf.tags["column"] = buf.round * 10
            return buf

        def read_tag(ctx, buf):
            seen.append(buf.tags["column"])
            return buf

        prog.add_pipeline("p", [Stage.map("tag", tag),
                                Stage.map("read", read_tag)],
                          nbuffers=2, buffer_bytes=8, rounds=3)
        return prog

    run_program(build)
    assert seen == [0, 10, 20]


def test_tags_cleared_on_recycle():
    def build(kernel):
        prog = FGProgram(kernel)

        def check(ctx, buf):
            assert buf.tags == {}, "recycled buffer kept stale tags"
            buf.tags["x"] = buf.round
            return buf

        prog.add_pipeline("p", [Stage.map("check", check)],
                          nbuffers=1, buffer_bytes=8, rounds=5)
        return prog

    run_program(build)


def test_stage_exception_propagates_as_failure():
    def build(kernel):
        prog = FGProgram(kernel)

        def bad(ctx, buf):
            raise RuntimeError("stage blew up")

        prog.add_pipeline("p", [Stage.map("bad", bad)],
                          nbuffers=1, buffer_bytes=8, rounds=3)
        return prog

    kernel = VirtualTimeKernel()
    prog = build(kernel)
    kernel.spawn(prog.run, name="driver")
    with pytest.raises(ProcessFailed):
        kernel.run()


def test_aux_buffers_allocated_when_requested():
    def build(kernel):
        prog = FGProgram(kernel)

        def use_aux(ctx, buf):
            assert buf.aux is not None
            assert len(buf.aux) == buf.capacity
            buf.aux[:4] = 7  # scratch space for out-of-place permute
            return buf

        prog.add_pipeline("p", [Stage.map("aux", use_aux)],
                          nbuffers=1, buffer_bytes=32, rounds=2,
                          aux_buffers=True)
        return prog

    run_program(build)


def test_released_buffer_says_its_program_finished():
    """After wait() a pool buffer is an empty shell: touching it names
    the buffer as released (not "caboose", which would send a reader to
    the end-of-stream logic), and describing it still works."""
    from repro.errors import StageError

    def build(kernel):
        prog = FGProgram(kernel, name="done")
        prog.add_pipeline("p", [Stage.map("s", lambda ctx, b: b)],
                          nbuffers=2, buffer_bytes=32, rounds=3,
                          aux_buffers=True)
        return prog

    _, prog = run_program(build)
    for buf in prog.buffers_of(prog.pipelines[0]):
        assert buf.data is None and buf.aux is None
        assert buf.capacity == 0 and buf.fill_fraction == 0.0
        assert not buf.is_caboose
        assert repr(buf).startswith(f"<Buffer p#{buf.index} ")
        assert repr(buf).endswith("size=0/0>")
        for touch in (lambda: buf.view(np.uint8),
                      lambda: buf.put(np.zeros(1, dtype=np.uint8))):
            with pytest.raises(StageError) as exc_info:
                touch()
            message = str(exc_info.value)
            assert f"released buffer p#{buf.index}" in message
            assert "its program finished" in message
            assert "caboose" not in message


def test_empty_program_rejected():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    kernel.spawn(prog.run)
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run()
    assert isinstance(exc_info.value.original, PipelineStructureError)


def test_pipeline_validation_errors():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    stage = Stage.map("s", lambda ctx, b: b)
    with pytest.raises(PipelineStructureError):
        prog.add_pipeline("p", [], nbuffers=1, buffer_bytes=8)
    with pytest.raises(PipelineStructureError):
        prog.add_pipeline("p", [stage], nbuffers=0, buffer_bytes=8)
    with pytest.raises(PipelineStructureError):
        prog.add_pipeline("p", [stage], nbuffers=1, buffer_bytes=0)
    with pytest.raises(PipelineStructureError):
        prog.add_pipeline("p", [stage], nbuffers=1, buffer_bytes=8,
                          rounds=-1)
    with pytest.raises(PipelineStructureError):
        prog.add_pipeline("p", [stage, stage], nbuffers=1, buffer_bytes=8)


def test_rendezvous_with_unknown_rounds_rejected_at_construction():
    """The capacity-0 + rounds=None combination deadlocks before any
    buffer is delivered; it must be rejected when the pipeline is built,
    not discovered mid-run."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="rv")
    with pytest.raises(PipelineStructureError, match="rendezvous"):
        prog.add_pipeline(
            "p", [Stage.map("s", lambda ctx, buf: buf)],
            nbuffers=2, buffer_bytes=8, rounds=None, channel_capacity=0)


def test_rendezvous_with_declared_rounds_is_allowed():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="rv2")
    seen = []

    def s(ctx, buf):
        seen.append(buf.round)
        return buf

    prog.add_pipeline("p", [Stage.map("s", s)], nbuffers=2,
                      buffer_bytes=8, rounds=3, channel_capacity=1)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert seen == [0, 1, 2]


def test_thread_count_linear_pipeline():
    """A 3-stage pipeline costs 5 threads: source + 3 stages + sink."""

    def build(kernel):
        prog = FGProgram(kernel)
        prog.add_pipeline(
            "p", [Stage.map(f"s{i}", lambda ctx, b: b) for i in range(3)],
            nbuffers=1, buffer_bytes=8, rounds=1)
        return prog

    _, prog = run_program(build)
    assert prog.thread_count == 5


def test_stage_stats_recorded():
    def build(kernel):
        prog = FGProgram(kernel)

        def slow(ctx, buf):
            kernel.sleep(2.0)
            return buf

        prog.add_pipeline("p", [Stage.map("slow", slow)],
                          nbuffers=1, buffer_bytes=8, rounds=3)
        return prog

    _, prog = run_program(build)
    stats = prog.stage_stats()["slow"]
    assert stats.accepts == 4  # 3 data + caboose
    assert stats.conveys == 3
    assert stats.busy == pytest.approx(6.0)


def test_buffer_view_and_put_roundtrip():
    def build(kernel):
        prog = FGProgram(kernel)

        def fill(ctx, buf):
            buf.put(np.arange(4, dtype="<u4"))
            return buf

        def check(ctx, buf):
            np.testing.assert_array_equal(buf.view("<u4"),
                                          np.arange(4, dtype="<u4"))
            assert buf.size == 16
            return buf

        prog.add_pipeline("p", [Stage.map("fill", fill),
                                Stage.map("check", check)],
                          nbuffers=1, buffer_bytes=64, rounds=2)
        return prog

    run_program(build)
