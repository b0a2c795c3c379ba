"""Tests for multiple disjoint pipelines on one node (paper Figure 4).

The send and receive pipelines share nothing but (here) an in-memory
channel standing in for the interconnect; they progress at their own rates
and may use different pool sizes and buffer sizes.
"""

import numpy as np
import pytest

from repro.core import FGProgram, Stage
from repro.sim import Channel, VirtualTimeKernel


def test_disjoint_pipelines_run_concurrently_at_own_rates():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    wire = Channel(kernel, name="wire")
    received = []

    def send(ctx, buf):
        kernel.sleep(1.0)  # acquire+process+send takes 1 s per buffer
        wire.put(buf.round)
        return buf

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        for _ in range(6):
            value = wire.get()
            buf = ctx.accept()
            kernel.sleep(3.0)  # receiver is slower
            received.append(value)
            ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    def save(ctx, buf):
        return buf

    prog.add_pipeline("send", [Stage.map("send", send)],
                      nbuffers=2, buffer_bytes=8, rounds=6)
    prog.add_pipeline("recv", [Stage.source_driven("receive", receive),
                               Stage.map("save", save)],
                      nbuffers=2, buffer_bytes=32, rounds=None)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert received == list(range(6))
    # sender finishes at 6 s; receiver is the critical path: ~6*3 s
    assert kernel.now() == pytest.approx(19.0, abs=1.5)


def test_disjoint_pipelines_have_independent_pools_and_sizes():
    kernel = VirtualTimeKernel()
    # race_detect=False: the two probes fill one dict as the measuring
    # instrument — a true positive of FGRace's cell model, not shipped code
    prog = FGProgram(kernel, race_detect=False)
    sizes = {}

    def probe(name):
        def fn(ctx, buf):
            sizes.setdefault(name, buf.capacity)
            return buf
        return fn

    a = prog.add_pipeline("a", [Stage.map("pa", probe("a"))],
                          nbuffers=2, buffer_bytes=64, rounds=1)
    b = prog.add_pipeline("b", [Stage.map("pb", probe("b"))],
                          nbuffers=5, buffer_bytes=256, rounds=1)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert sizes == {"a": 64, "b": 256}
    assert len(prog.buffers_of(a)) == 2
    assert len(prog.buffers_of(b)) == 5


def test_buffers_cannot_jump_between_pipelines():
    """Section IV: 'buffers cannot jump from one pipeline to another'."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    stolen = []

    def thief(ctx, buf):
        stolen.append(buf)
        return buf

    def fence(ctx, buf):
        if stolen:
            ctx.convey(stolen[0])  # buffer belongs to the other pipeline
        return buf

    prog.add_pipeline("a", [Stage.map("thief", thief)],
                      nbuffers=1, buffer_bytes=8, rounds=2)
    prog.add_pipeline("b", [Stage.map("fence", fence)],
                      nbuffers=1, buffer_bytes=8, rounds=2)
    kernel.spawn(prog.run, name="driver")
    with pytest.raises(Exception) as exc_info:
        kernel.run()
    assert "does not belong" in str(exc_info.value.original)


def test_unbalanced_flow_modelled_with_two_pipelines():
    """A node that sends 3 blocks but receives 9 (unbalanced communication)
    still shuts down cleanly because each pipeline has its own caboose."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    wire = Channel(kernel, name="wire")
    saved = []

    def send(ctx, buf):
        for _ in range(3):  # each send buffer fans out to 3 receive blocks
            wire.put(buf.round)
        return buf

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        for _ in range(9):
            value = wire.get()
            buf = ctx.accept()
            buf.tags["v"] = value
            ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    def save(ctx, buf):
        saved.append(buf.tags["v"])
        return buf

    prog.add_pipeline("send", [Stage.map("send", send)],
                      nbuffers=2, buffer_bytes=8, rounds=3)
    prog.add_pipeline("recv", [Stage.source_driven("receive", receive),
                               Stage.map("save", save)],
                      nbuffers=4, buffer_bytes=8, rounds=None)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert saved == [0, 0, 0, 1, 1, 1, 2, 2, 2]
