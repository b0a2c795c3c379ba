"""Time-series tests: binning, discovery, rendering."""

import pytest

from repro.core import FGProgram, Stage
from repro.obs import (
    SeriesBin,
    StageSeries,
    instrumented_programs,
    render_stage_series,
    stage_series,
)
from repro.sim import VirtualTimeKernel


def run_instrumented(rounds=8, work_time=0.01):
    kernel = VirtualTimeKernel()
    registry = kernel.enable_metrics()
    prog = FGProgram(kernel, name="ts")

    def fast(ctx, buf):
        return buf

    def slow(ctx, buf):
        kernel.sleep(work_time)
        return buf

    prog.add_pipeline("p", [Stage.map("fast", fast),
                            Stage.map("slow", slow)],
                      nbuffers=2, buffer_bytes=8, rounds=rounds)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    return kernel, registry


def test_series_bin_derived_quantities():
    b = SeriesBin(0.0, 2.0, accepts=4, wait_seconds=1.0)
    assert b.mean_wait == 0.25
    assert b.wait_fraction == 0.5
    idle = SeriesBin(0.0, 2.0, accepts=0, wait_seconds=0.0)
    assert idle.mean_wait == 0.0


def test_instrumented_programs_discovered_from_registry():
    _, registry = run_instrumented()
    assert instrumented_programs(registry) == ["ts"]


def test_stage_series_totals_match_the_run():
    kernel, registry = run_instrumented(rounds=8)
    series = stage_series(registry, "ts", bins=6)
    by_stage = {s.stage: s for s in series}
    assert set(by_stage) == {"fast", "slow"}
    for s in series:
        assert len(s.bins) == 6
        # an accept stamped exactly at t0=0 sits on the window edge and
        # is excluded by the half-open delta; everything else is binned
        assert 7 <= s.total_accepts <= 8
    # the fast stage spends its life starved by the slow one downstream:
    # backpressure shows up as wait somewhere in the pipeline
    assert sum(s.total_wait for s in series) > 0


def test_stage_series_window_slicing_is_consistent():
    kernel, registry = run_instrumented(rounds=8)
    end = kernel.now()
    full = {s.stage: s for s in stage_series(registry, "ts", bins=4)}
    first = {s.stage: s
             for s in stage_series(registry, "ts", t1=end / 2, bins=2)}
    second = {s.stage: s
              for s in stage_series(registry, "ts", t0=end / 2, bins=2)}
    for name in full:
        assert (first[name].total_accepts + second[name].total_accepts
                == pytest.approx(full[name].total_accepts))


def test_sparkline_and_peak_bin():
    s = StageSeries("x", (
        SeriesBin(0, 1, 2, 0.0),
        SeriesBin(1, 2, 2, 0.5),
        SeriesBin(2, 3, 2, 0.1),
    ))
    line = s.sparkline()
    assert len(line) == 3
    assert line[0] == " "                  # no wait -> lightest glyph
    assert line[1] == "@"                  # peak -> heaviest glyph
    assert s.peak_wait_bin().t0 == 1
    never = StageSeries("y", (SeriesBin(0, 1, 2, 0.0),))
    assert never.peak_wait_bin() is None
    assert never.sparkline() == " "


def test_render_stage_series_table():
    _, registry = run_instrumented()
    series = stage_series(registry, "ts", bins=8)
    text = render_stage_series(series)
    lines = text.splitlines()
    assert "wait profile" in lines[0]
    assert len(lines) == 1 + len(series)
    for s in series:
        assert any(line.startswith(s.stage) for line in lines[1:])


def test_render_empty_series_says_what_to_do():
    assert "enable kernel metrics" in render_stage_series([])


def test_stage_series_rejects_bad_windows():
    _, registry = run_instrumented()
    with pytest.raises(ValueError):
        stage_series(registry, "ts", bins=0)
    with pytest.raises(ValueError):
        stage_series(registry, "ts", t0=5.0, t1=1.0)
