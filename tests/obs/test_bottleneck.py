"""Tests for bottleneck analysis on deliberately unbalanced pipelines."""

import pytest

from repro.core import FGProgram, Stage
from repro.obs import analyze_bottleneck
from repro.obs.bottleneck import normalize_reason
from repro.sim import Tracer, VirtualTimeKernel


def run_unbalanced(slow_stage="mid", slow=4e-3, fast=1e-3, rounds=6):
    """A 3-stage pipeline where one stage does 4x the timed work."""
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)

    def make(name):
        def fn(ctx, buf):
            kernel.sleep(slow if name == slow_stage else fast)
            return buf
        return Stage.map(name, fn)

    prog = FGProgram(kernel, name="ub")
    prog.add_pipeline("p", [make("pre"), make("mid"), make("post")],
                      nbuffers=3, buffer_bytes=64, rounds=rounds)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    stage_rows = [n for n in tracer.process_names()
                  if n in ("ub.pre", "ub.mid", "ub.post")]
    return analyze_bottleneck(tracer, processes=stage_rows)


def test_names_the_slow_stage():
    report = run_unbalanced()
    assert report.bottleneck.process == "ub.mid"
    # the slow stage is busiest; the others spend the difference blocked
    by_process = {b.process: b for b in report.breakdowns}
    mid, pre = by_process["ub.mid"], by_process["ub.pre"]
    assert mid.busy > 2 * pre.busy
    assert pre.contend + pre.wait > mid.contend + mid.wait


def test_bottleneck_follows_the_work():
    report = run_unbalanced(slow_stage="post")
    assert report.bottleneck.process == "ub.post"


def test_breakdown_totals_and_span():
    report = run_unbalanced()
    assert report.span > 0
    for b in report.breakdowns:
        assert b.total == pytest.approx(b.busy + b.contend + b.wait)
        assert b.total <= report.span + 1e-9
    # sorted by busy time, descending
    busys = [b.busy for b in report.breakdowns]
    assert busys == sorted(busys, reverse=True)


def test_blocked_reasons_name_queues():
    report = run_unbalanced()
    (pre,) = [b for b in report.breakdowns if b.process == "ub.pre"]
    # the fast upstream stage blocks conveying into the slow stage's queue
    reasons = dict(pre.top_reasons(5))
    assert any("put" in r or "get" in r for r in reasons)
    assert all(seconds > 0 for seconds in reasons.values())


def test_render_marks_bottleneck_and_blocked_reasons():
    report = run_unbalanced()
    text = report.render()
    assert "<-- bottleneck" in text
    assert "'ub.mid'" in text
    assert "where 'ub.mid' blocks:" in text or "busy" in text
    assert "busy%" in text and "wait%" in text


def test_empty_trace_renders_gracefully():
    report = analyze_bottleneck(Tracer())
    assert report.bottleneck is None
    assert report.render() == "(no processes traced)"


def test_normalize_reason_collapses_sleep_details():
    assert normalize_reason("work", "sleep until t=0.0123") == "work"
    assert normalize_reason("wait", "sleep until t=9") == "work"
    assert normalize_reason("run", "") == "run"
    assert normalize_reason("wait", "get <- fg.p->sort") == \
        "get <- fg.p->sort"
    assert normalize_reason("contend", "acquire 1x node0.disk") == \
        "acquire 1x node0.disk"
    assert normalize_reason("wait", "") == "wait"
