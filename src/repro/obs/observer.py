"""ProgramObserver: the single event path for FG stage bookkeeping.

Every stage lifecycle event flows through the one :class:`ProgramObserver`
owned by the :class:`~repro.core.program.FGProgram`, called from that
event's single site in ``repro.core`` (DESIGN.md, "Buffer lifecycle
events"): the observer keeps the :class:`~repro.core.stage.StageStats`
view up to date *and* mirrors each event into the kernel's metrics
registry when one is enabled (see
:meth:`~repro.sim.kernel.Kernel.enable_metrics`).

Metric names, all prefixed with the program name::

    fg.<prog>.stage.<stage>.accepts             counter
    fg.<prog>.stage.<stage>.conveys             counter
    fg.<prog>.stage.<stage>.accept_wait_seconds counter (unit: s)
    fg.<prog>.stage.<stage>.fill                histogram of conveyed
                                                buffer fill fractions
    fg.<prog>.pipeline.<pipe>.buffers_in_flight gauge (sampled, for the
                                                Chrome-trace counter track)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.buffer import Buffer
    from repro.core.pipeline import Pipeline
    from repro.core.program import FGProgram
    from repro.core.stage import Stage
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.plan.ir import ProgramGraph

__all__ = ["ProgramObserver"]

#: bucket bounds for buffer fill fractions (how full conveyed buffers are)
FILL_BOUNDS = (0.25, 0.5, 0.75, 0.9, 1.0)


class _Probes:
    """One stage's or pipeline's instruments.  Each slot is filled at
    the first event that records into it, through the registry's
    get-or-create lookup by name: an instrument's existence and a
    gauge's creation instant both enter ``metrics_digest``, so a stage
    that never accepts must still register no ``accepts`` counter."""

    __slots__ = ("accepts", "accept_wait", "conveys", "fill", "in_flight")

    def __init__(self) -> None:
        self.accepts: Optional["Counter"] = None
        self.accept_wait: Optional["Counter"] = None
        self.conveys: Optional["Counter"] = None
        self.fill: Optional["Histogram"] = None
        self.in_flight: Optional["Gauge"] = None


class ProgramObserver:
    """Routes stage/pipeline lifecycle events to stats and metrics."""

    def __init__(self, program: "FGProgram"):
        self.program = program
        self.kernel = program.kernel
        #: stage or pipeline -> its instruments, so an event formats and
        #: looks up each metric name once per program, not once per event
        self._probes: dict[object, _Probes] = {}

    def _prefix(self, stage: "Stage") -> str:
        return f"fg.{self.program.name}.stage.{stage.name}"

    def _probes_of(self, key: object) -> _Probes:
        probes = self._probes.get(key)
        if probes is None:
            probes = self._probes[key] = _Probes()
        return probes

    # -- program lifecycle --------------------------------------------------

    def program_started(self, graph: Optional["ProgramGraph"]) -> None:
        """The program assembled and is about to spawn its processes.

        Forwards the program and ``graph`` — the IR ``start()`` built
        for the linter, always present when a capture is attached — to
        the kernel's provenance capture, so every FG program — dsort's
        passes, csort's, chaos runs, tuned runs — reports its
        stage-graph fingerprint with zero per-app code and no second
        walk.
        """
        capture = self.kernel.provenance
        if capture is not None:
            assert graph is not None
            capture.on_program_start(self.program, graph)

    # -- stage lifecycle ----------------------------------------------------

    def stage_started(self, stage: "Stage") -> None:
        stage.stats.started_at = self.kernel.now()

    def stage_finished(self, stage: "Stage") -> None:
        stage.stats.finished_at = self.kernel.now()

    def accepted(self, stage: "Stage", wait_seconds: float) -> None:
        """One buffer (or caboose) accepted after ``wait_seconds`` blocked."""
        stats = stage.stats
        stats.accepts += 1
        stats.accept_wait += wait_seconds
        registry = self.kernel.metrics
        if registry is not None:
            probes = self._probes_of(stage)
            accepts, waits = probes.accepts, probes.accept_wait
            if accepts is None or waits is None:
                prefix = self._prefix(stage)
                # sampled, so repro.obs.timeseries can read windowed
                # deltas, not just run-wide aggregates
                accepts = probes.accepts = registry.counter(
                    f"{prefix}.accepts", record_samples=True)
                waits = probes.accept_wait = registry.counter(
                    f"{prefix}.accept_wait_seconds", unit="s",
                    record_samples=True)
            accepts.inc()
            waits.inc(wait_seconds)

    def conveyed(self, stage: "Stage",
                 buffer: Optional["Buffer"] = None) -> None:
        """One buffer conveyed downstream (None for synthesized cabooses)."""
        stage.stats.conveys += 1
        registry = self.kernel.metrics
        if registry is not None:
            probes = self._probes_of(stage)
            conveys = probes.conveys
            if conveys is None:
                conveys = probes.conveys = registry.counter(
                    f"{self._prefix(stage)}.conveys")
            conveys.inc()
            if (buffer is not None and not buffer.is_caboose
                    and buffer.capacity):
                fill = probes.fill
                if fill is None:
                    fill = probes.fill = registry.histogram(
                        f"{self._prefix(stage)}.fill", bounds=FILL_BOUNDS)
                fill.observe(buffer.fill_fraction)

    # -- buffer-pool circulation -------------------------------------------

    def _in_flight(self, pipeline: "Pipeline") -> Optional["Gauge"]:
        registry = self.kernel.metrics
        if registry is None:
            return None
        probes = self._probes_of(pipeline)
        gauge = probes.in_flight
        if gauge is None:
            gauge = probes.in_flight = registry.gauge(
                f"fg.{self.program.name}.pipeline.{pipeline.name}"
                ".buffers_in_flight",
                record_samples=True)
        return gauge

    def emitted(self, pipeline: "Pipeline") -> None:
        """The source put one recycled buffer into circulation."""
        gauge = self._in_flight(pipeline)
        if gauge is not None:
            gauge.add(1)

    def recycled(self, pipeline: "Pipeline") -> None:
        """The sink returned one data buffer to the pool."""
        gauge = self._in_flight(pipeline)
        if gauge is not None:
            gauge.add(-1)

    # -- sanitizer (FGSan) ----------------------------------------------------

    def sanitizer_violation(self, kind: str, count: int = 1) -> None:
        """FGSan detected ``count`` ownership violations of ``kind``
        (use_after_convey, double_convey, cross_pipeline, caboose_write,
        stale_round, leak, ...); counted under ``sanitizer.<kind>``."""
        registry = self.kernel.metrics
        if registry is not None:
            registry.counter(f"sanitizer.{kind}").inc(count)

    # -- graceful teardown ---------------------------------------------------

    def poisoned(self, pipeline: "Pipeline") -> None:
        """A stage failure poisoned this pipeline (teardown started)."""
        registry = self.kernel.metrics
        if registry is not None:
            registry.counter(
                f"fg.{self.program.name}.pipeline.{pipeline.name}"
                ".poisoned").inc()

    def drained(self, pipeline: "Pipeline", count: int) -> None:
        """``count`` stranded buffers were drained back to the pool."""
        registry = self.kernel.metrics
        if registry is not None:
            registry.counter(
                f"fg.{self.program.name}.pipeline.{pipeline.name}"
                ".buffers_drained").inc(count)
