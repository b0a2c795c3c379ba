"""Every runner kind in one program; the detectors are passive.

One small program drives every buffer-lifecycle hook site in
``repro.core`` — map, full-control, intersecting, virtual group (family
source/sink), replicas + sequencer (with a dropped buffer), fork-join,
member EOS with stragglers, and a poisoned pipeline.  The runner-fold
refactor was first pinned with a program that also grew and retired
buffers mid-run; the digests and per-stage counts below were re-recorded
from the same program minus that growth and retirement, at the commit
before in-run pool mutation was deleted, so they pin the deletion.  The
same digests with FGSan and FGRace attached show that neither detector
perturbs the schedule or the metrics.
"""

from repro.core import FGProgram, Stage, add_fork_join
from repro.errors import PipelineFailed
from repro.prov import metrics_digest, trace_digest
from repro.sim import Tracer, VirtualTimeKernel

TRACE_DIGEST = (
    "4717240b63f038a0af815bc22cd5bed8694d23145750da6afb2b3b0fc75edc26")
METRICS_DIGEST = (
    "2590961bace76cafb000a37701eea0e45b0eab0f226cbb227f8bc538b0274814")

#: stage name -> (accepts, conveys).  Map and full-control stages count
#: the caboose as an accept (accepts == conveys + 1 on a clean pipeline);
#: replicas, the sequencer and virtual-group members do not; the
#: sequencer counts the dropped round's skip token as an accept.
COUNTS = {
    "stamp": (7, 6), "pump": (7, 6), "work": (6, 5), "work~seq": (6, 5),
    "tail": (6, 5),
    "left.in": (4, 3), "right.in": (4, 3), "merge": (8, 6),
    "acq0": (4, 4), "v0.out": (5, 4), "acq1": (3, 3),
    "fj.pre": (5, 4), "fj.fork": (9, 10), "fj.even": (3, 2),
    "fj.odd": (3, 2), "fj.join": (10, 9), "fj.post": (5, 4),
    "bad.in": (4, 3), "boom": (2, 1), "bad.out": (2, 1),
}


def _passthrough(ctx, buf):
    return buf


def _full_loop(ctx):
    while True:
        buf = ctx.accept()
        if buf.is_caboose:
            ctx.forward(buf)
            return
        ctx.kernel.sleep(0.002)
        ctx.convey(buf)


def _build(kernel, **detectors):
    prog = FGProgram(kernel, name="hooks", **detectors)

    # map -> full-control -> replicated (x2, drops round 3) -> map
    def work(ctx, buf):
        # earlier rounds take longer, so completions arrive out of
        # ticket order and the sequencer has envelopes to hold
        ctx.kernel.sleep(0.01 * (6 - buf.round))
        return None if buf.round == 3 else buf

    prog.add_pipeline(
        "main", [Stage.map("stamp", _passthrough),
                 Stage.source_driven("pump", _full_loop),
                 Stage.map("work", work),
                 Stage.map("tail", _passthrough)],
        nbuffers=3, buffer_bytes=8, rounds=6, replicas={"work": 2})

    # one full-control stage intersecting two pipelines
    def merge(ctx):
        left, right = ctx.pipelines
        for _ in range(3):
            a = ctx.accept(left)
            b = ctx.accept(right)
            ctx.kernel.sleep(0.003)
            ctx.convey(a)
            ctx.convey(b)
        ctx.forward(ctx.accept(left))
        ctx.forward(ctx.accept(right))

    merge_stage = Stage.source_driven("merge", merge)
    for side in ("left", "right"):
        prog.add_pipeline(
            side, [Stage.map(f"{side}.in", _passthrough), merge_stage],
            nbuffers=2, buffer_bytes=8, rounds=3)

    # a virtual group over two pipelines (one family); v1 has no round
    # count, so its member declares EOS and later buffers are stragglers
    def fixed(ctx, buf):
        ctx.kernel.sleep(0.004)
        return buf

    def until_two(ctx, buf):
        if buf.round == 2:
            ctx.convey_caboose()
            return None
        return buf

    prog.add_pipeline(
        "v0", [Stage.map("acq0", fixed, virtual=True, virtual_group="acq"),
               Stage.map("v0.out", _passthrough)],
        nbuffers=2, buffer_bytes=8, rounds=4)
    prog.add_pipeline(
        "v1", [Stage.map("acq1", until_two, virtual=True,
                         virtual_group="acq")],
        nbuffers=3, buffer_bytes=8, rounds=None)

    add_fork_join(
        prog, "fj", pre=[Stage.map("fj.pre", _passthrough)],
        branches={"even": [Stage.map("fj.even", _passthrough)],
                  "odd": [Stage.map("fj.odd", fixed)]},
        post=[Stage.map("fj.post", _passthrough)],
        route=lambda buf: "even" if buf.round % 2 == 0 else "odd",
        nbuffers=2, buffer_bytes=8, rounds=4)

    # a failing stage poisons only its own pipeline
    def boom(ctx, buf):
        if buf.round == 1:
            raise RuntimeError("boom")
        return buf

    prog.add_pipeline(
        "bad", [Stage.map("bad.in", _passthrough), Stage.map("boom", boom),
                Stage.map("bad.out", _passthrough)],
        nbuffers=2, buffer_bytes=8, rounds=5)
    return prog


def _run(**detectors):
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    kernel.enable_metrics()
    prog = _build(kernel, **detectors)
    failures = []

    def driver():
        try:
            prog.run()
        except PipelineFailed as exc:
            failures.extend((f.pipeline, f.stage) for f in exc.failures)

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert failures == [("bad", "boom")]
    counts = {name: (stats.accepts, stats.conveys)
              for name, stats in prog.stage_stats().items()}
    (rset,) = prog.replica_sets()
    counts[rset.seq_stage.name] = (rset.seq_stage.stats.accepts,
                                   rset.seq_stage.stats.conveys)
    return (trace_digest(tracer),
            metrics_digest(kernel.metrics.snapshot()), counts,
            prog, kernel)


def test_digests_and_counts_match_the_pre_refactor_recording():
    trace, metrics, counts, _, _ = _run(sanitize=False, race_detect=False)
    assert counts == COUNTS
    assert trace == TRACE_DIGEST
    assert metrics == METRICS_DIGEST


def test_detectors_are_passive():
    trace, metrics, counts, _, kernel = _run(sanitize=True,
                                             race_detect=True)
    assert (trace, metrics, counts) == (TRACE_DIGEST, METRICS_DIGEST, COUNTS)
    assert kernel.race.races == []
    assert not any(name.startswith("sanitizer.")
                   for name in kernel.metrics.snapshot()["counters"])
