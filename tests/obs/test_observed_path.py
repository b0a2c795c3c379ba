"""The observed path records exactly what it always did, paying less.

An observed run records a trace event on each side of every switch and
a metric on every accept, convey and pool change.  These tests pin the
cheap forms of that path against reference forms written out here: the
one-line-per-event trace digest, an observer that looks every metric up
by name on every event, and a histogram's linear bucket scan.
"""

import bisect
import hashlib
import math

import pytest

import repro.prov
import repro.sim
from repro.core import FGProgram, Stage
from repro.errors import PipelineFailed
from repro.faults import run_chaos_dsort
from repro.faults.plan import chaos_plan
from repro.obs import Gauge, Histogram
from repro.obs.observer import FILL_BOUNDS, ProgramObserver
from repro.prov import metrics_digest, trace_digest
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sim import Tracer, VirtualTimeKernel
from repro.sim.trace import PARK, RESUME, SPAWN, TraceEvent


# -- trace digest ------------------------------------------------------------

def reference_trace_digest(tracer):
    """The digest as it was first written: one hash update per event."""
    h = hashlib.sha256()
    for ev in tracer.events:
        h.update(f"{ev.time:.9e}|{ev.process}|{ev.kind}|"
                 f"{ev.detail}\n".encode())
    return h.hexdigest()


def hand_built_tracer():
    tracer = Tracer()
    now = 0.25
    tracer.record(now, "a", SPAWN)
    tracer.record(now, "a", RESUME)      # one float object, reused
    tracer.record(0.0, "a", PARK, "sleep 0")
    tracer.record(-0.0, "b", RESUME)     # == 0.0, formats differently
    tracer.record(-0.0, "b", PARK, "recv ← ünïcode ✓")
    tracer.record(float("0.5"), "b", RESUME)
    tracer.record(float("0.5"), "c", PARK, "equal, not identical")
    for i in range(2049 - len(tracer.events)):
        t = i // 3 * 1e-3                # runs of three equal instants
        tracer.record(t, f"p{i % 7}", PARK if i % 2 else RESUME,
                      f"detail {i}")
    return tracer


def test_trace_digest_matches_one_line_per_event():
    tracer = hand_built_tracer()
    assert len(tracer.events) == 2049    # crosses two chunk edges
    assert trace_digest(tracer) == reference_trace_digest(tracer)


def test_trace_digest_tells_negative_zero_apart():
    plus, minus = Tracer(), Tracer()
    for tracer, first in ((plus, 0.0), (minus, -0.0)):
        tracer.record(0.0, "a", PARK)
        tracer.record(first, "a", RESUME)
    assert trace_digest(plus) == reference_trace_digest(plus)
    assert trace_digest(minus) == reference_trace_digest(minus)
    assert trace_digest(plus) != trace_digest(minus)


@pytest.mark.parametrize("n", [0, 1, 1024, 1025])
def test_trace_digest_at_chunk_edges(n):
    tracer = Tracer()
    for i in range(n):
        tracer.record(i * 0.5, "p", RESUME)
    assert trace_digest(tracer) == reference_trace_digest(tracer)


def test_trace_digest_of_a_chaos_run(monkeypatch):
    seen = []
    digest = repro.prov.trace_digest

    def spy(tracer):
        seen.append(tracer)
        return digest(tracer)

    monkeypatch.setattr(repro.prov, "trace_digest", spy)
    seed = 5
    report = run_chaos_dsort(
        n_nodes=3, records_per_node=1500, seed=seed,
        plan=chaos_plan(seed, 3, disk_fault_rate=0.02, drop_rate=0.01,
                        straggler_rank=1),
        recover=RecoverPolicy(
            checkpoint=True, backup_runs=True,
            speculation=SpeculationPolicy(interval=0.01, patience=2,
                                          min_progress=0.02)),
        block_records=256, vertical_block_records=64,
        out_block_records=256)
    assert report.verified and len(seen) == 1
    assert len(seen[0].events) > 1024
    assert report.trace_digest == reference_trace_digest(seen[0])


# -- TraceEvent -------------------------------------------------------------

def test_trace_event_shape():
    assert repro.sim.TraceEvent is TraceEvent
    assert TraceEvent._fields == ("time", "process", "kind", "detail")
    tracer = Tracer()
    tracer.record(1.5, "p", PARK, "sleep 1")
    tracer.record(2.0, "p", RESUME)
    park, resume = tracer.events
    assert type(park) is TraceEvent
    assert park == TraceEvent(1.5, "p", PARK, "sleep 1")
    assert (park.time, park.process, park.kind, park.detail) == (
        1.5, "p", PARK, "sleep 1")
    assert resume.detail == ""
    assert not hasattr(park, "__dict__")
    with pytest.raises(AttributeError):
        park.time = 3.0


def test_record_follows_a_reassigned_event_list():
    tracer = Tracer()
    tracer.record(0.0, "p", SPAWN)
    old, tracer.events = tracer.events, []
    tracer.record(1.0, "p", RESUME)
    assert [ev.kind for ev in old] == [SPAWN]
    assert [ev.kind for ev in tracer.events] == [RESUME]


# -- observer ---------------------------------------------------------------

class FreshLookupObserver(ProgramObserver):
    """The observer as it was first written: every event formats its
    metric names and looks each one up in the registry."""

    def accepted(self, stage, wait_seconds):
        stage.stats.accepts += 1
        stage.stats.accept_wait += wait_seconds
        registry = self.kernel.metrics
        if registry is not None:
            prefix = self._prefix(stage)
            registry.counter(f"{prefix}.accepts",
                             record_samples=True).inc()
            registry.counter(f"{prefix}.accept_wait_seconds", unit="s",
                             record_samples=True).inc(wait_seconds)

    def conveyed(self, stage, buffer=None):
        stage.stats.conveys += 1
        registry = self.kernel.metrics
        if registry is not None:
            prefix = self._prefix(stage)
            registry.counter(f"{prefix}.conveys").inc()
            if (buffer is not None and not buffer.is_caboose
                    and buffer.capacity):
                registry.histogram(f"{prefix}.fill",
                                   bounds=FILL_BOUNDS).observe(
                    buffer.fill_fraction)

    def _in_flight(self, pipeline):
        registry = self.kernel.metrics
        if registry is None:
            return None
        return registry.gauge(
            f"fg.{self.program.name}.pipeline.{pipeline.name}"
            ".buffers_in_flight", record_samples=True)


def _half_fill(ctx, buf):
    ctx.kernel.sleep(0.01 * (1 + buf.round % 3))
    buf.size = buf.capacity // 2
    return buf


def _twins_run(observer_cls):
    """Two programs named alike on one kernel (the second built at t=0
    but started later), then a third, built at t=0 and run at t=0.5+,
    with a stage that dies before it accepts and one that dies before
    it conveys."""
    kernel = VirtualTimeKernel(tracer=Tracer())
    registry = kernel.enable_metrics()
    programs = []
    for rounds in (4, 3):
        prog = FGProgram(kernel, name="twin")
        prog.observer = observer_cls(prog)
        prog.add_pipeline("p", [Stage.map("s", _half_fill)],
                          nbuffers=2, buffer_bytes=64, rounds=rounds,
                          channel_capacity=1)
        programs.append(prog)

    def never_accepts(ctx):
        raise RuntimeError("dies before its first accept")

    def never_conveys(ctx, buf):
        raise RuntimeError("dies on its first buffer")

    doomed = FGProgram(kernel, name="doomed")
    doomed.observer = observer_cls(doomed)
    doomed.add_pipeline("d", [Stage.map("up", _half_fill),
                              Stage.source_driven("dead", never_accepts)],
                        nbuffers=2, buffer_bytes=64, rounds=2)
    doomed.add_pipeline("e", [Stage.map("dies", never_conveys)],
                        nbuffers=2, buffer_bytes=64, rounds=2)
    failures = []

    def driver():
        programs[0].start()
        kernel.sleep(0.015)
        programs[1].start()
        for prog in programs:
            prog.wait()
        kernel.sleep(0.5)
        try:
            doomed.run()
        except PipelineFailed as exc:
            failures.append(exc)

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert len(failures) == 1
    return registry, kernel.tracer


def test_observer_records_what_fresh_lookups_record():
    registry, tracer = _twins_run(ProgramObserver)
    reference, ref_tracer = _twins_run(FreshLookupObserver)
    assert registry.names() == reference.names()
    assert registry.snapshot() == reference.snapshot()
    assert metrics_digest(registry.snapshot()) == metrics_digest(
        reference.snapshot())
    assert trace_digest(tracer) == trace_digest(ref_tracer)
    # the gauge's time average starts at its first event, not at
    # program construction; the channel gauges' level histograms agree
    for name in registry.names():
        metric = registry.get(name)
        if hasattr(metric, "time_average"):
            ref = reference.get(name)
            assert metric._t0 == ref._t0, name
            assert metric.time_average() == ref.time_average(), name
            levels = metric.snapshot().get("levels")
            if levels is not None:
                assert levels["weights"] == \
                    ref.snapshot()["levels"]["weights"], name


def test_instruments_exist_only_once_recorded_into():
    registry, _ = _twins_run(ProgramObserver)
    names = registry.names()
    assert {"fg.doomed.stage.up.accepts", "fg.doomed.stage.up.conveys",
            "fg.doomed.stage.up.fill"} <= set(names)
    assert not [n for n in names if n.startswith("fg.doomed.stage.dead.")]
    assert [n for n in names if n.startswith("fg.doomed.stage.dies.")] == [
        "fg.doomed.stage.dies.accept_wait_seconds",
        "fg.doomed.stage.dies.accepts"]
    gauge = registry.get("fg.doomed.pipeline.d.buffers_in_flight")
    assert gauge._t0 >= 0.5   # its first emit, not program construction


def test_programs_with_one_name_share_instruments():
    registry, _ = _twins_run(ProgramObserver)
    # 4 + 3 rounds; each program accepts its caboose but forwards it
    # without a convey
    assert registry.get("fg.twin.stage.s.accepts").value == 4 + 1 + 3 + 1
    assert registry.get("fg.twin.stage.s.conveys").value == 4 + 3
    fill = registry.get("fg.twin.stage.s.fill")
    assert fill.count == 7 and fill.mean() == 0.5
    assert registry.get("fg.twin.pipeline.p.buffers_in_flight").value == 0


def test_one_spawn_counter_per_kernel():
    kernel = VirtualTimeKernel()
    kernel.spawn(lambda: None)
    assert kernel.metrics is None
    registry = kernel.enable_metrics()
    assert "kernel.processes_spawned" not in registry.names()
    for _ in range(3):
        kernel.spawn(lambda: None)
    kernel.run()
    assert registry.get("kernel.processes_spawned").value == 3


# -- instruments ------------------------------------------------------------

def reference_bucket(bounds, value):
    """The histogram's bucket rule as a linear scan: the first bound the
    value is <= to, else the overflow bucket."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


@pytest.mark.parametrize("bounds", [FILL_BOUNDS, (0.0, 1.0, 2.0, 4.0),
                                    (1.0, 1.0, 2.0), (), (5,)])
def test_histogram_buckets_match_the_linear_scan(bounds):
    values = [-math.inf, -1.0, -0.0, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
              1.5, 2, 4.0, 5, 7.5, 1e300, math.inf, math.nan]
    h = Histogram("h", lambda: 0.0, bounds=bounds)
    expected = [0.0] * (len(bounds) + 1)
    for v in values:
        h.observe(v)
        expected[reference_bucket(bounds, v)] += 1.0
    assert h.weights == expected


def test_histogram_edge_values():
    h = Histogram("h", lambda: 0.0, bounds=(1.0, 2.0))
    h.observe(math.nan)
    h.observe(2.0)     # equal to a bound: that bound's bucket
    h.observe(2.0000001)
    h.observe(1.0)
    assert h.weights == [1.0, 1.0, 2.0]
    # NaN first stays the min and max, as builtin min/max left it
    assert math.isnan(h.min) and math.isnan(h.max)
    assert bisect.bisect_left(h.bounds, math.nan) == 0  # why NaN is guarded


def test_histogram_refuses_nan_bounds():
    with pytest.raises(ValueError, match="ascend"):
        Histogram("h", lambda: 0.0, bounds=(1.0, math.nan))


def test_gauge_extremes_match_builtin_min_max():
    g = Gauge("g", lambda: 0.0)
    hi = lo = 0.0
    for v in (2, -0.0, 3, 3.0, -2, math.nan, 1, -2.0, 5.5, 0):
        if v != g.value:   # set() ignores a value equal to the current
            hi, lo = max(hi, v), min(lo, v)
        g.set(v)
    assert (g.max, g.min) == (hi, lo) == (5.5, -2)
    assert type(g.min) is int
