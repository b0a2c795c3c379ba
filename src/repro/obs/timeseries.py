"""Per-stage time series derived from sampled metrics.

The metrics registry aggregates by default: ``stage.sort.accepts`` is one
number for the whole run.  That is fine for totals but useless for the
questions ``repro analyze`` asks — *when* did the stage wait, did
backpressure build up or drain?  This module answers them by slicing the
sampled stage accept and accept-wait counters that instrumented programs
already record into fixed time bins (:meth:`Counter.window_delta`):

* :func:`stage_series` — per-stage bins of accepts and queue-wait
  seconds over the run (or any window);
* :func:`render_stage_series` — a monospace table with a sparkline-style
  wait profile, printed by ``python -m repro analyze``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["SeriesBin", "StageSeries", "instrumented_programs",
           "render_stage_series", "stage_series"]

#: glyphs for the wait profile, lightest to heaviest load
_SPARK = " .:-=+*#%@"


@dataclasses.dataclass(frozen=True)
class SeriesBin:
    """One time bin of one stage's activity."""

    t0: float
    t1: float
    accepts: float        #: buffers accepted during the bin
    wait_seconds: float   #: seconds spent blocked on the inbound channel


@dataclasses.dataclass(frozen=True)
class StageSeries:
    """A stage's binned activity over a window."""

    stage: str
    bins: tuple[SeriesBin, ...]

    @property
    def total_accepts(self) -> float:
        return sum(b.accepts for b in self.bins)

    @property
    def total_wait(self) -> float:
        return sum(b.wait_seconds for b in self.bins)

    def sparkline(self) -> str:
        """One glyph per bin scaled to the stage's own peak wait."""
        peak = max((b.wait_seconds for b in self.bins), default=0.0)
        if peak <= 0:
            return " " * len(self.bins)
        out = []
        for b in self.bins:
            idx = int(b.wait_seconds / peak * (len(_SPARK) - 1))
            out.append(_SPARK[idx])
        return "".join(out)


def _edges(t0: float, t1: float, bins: int) -> list[tuple[float, float]]:
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if t1 <= t0:
        raise ValueError(f"empty window [{t0}, {t1}]")
    width = (t1 - t0) / bins
    return [(t0 + i * width, t0 + (i + 1) * width) for i in range(bins)]


def instrumented_programs(registry: MetricsRegistry) -> list[str]:
    """Program names with sampled stage metrics, in registry order.

    Discovered from ``fg.<program>.stage.<stage>.accepts`` counter names,
    so a caller (``repro analyze``) needs no prior knowledge of how many
    FG programs the workload assembled or what they were called.
    """
    out: dict[str, None] = {}
    for name in registry.names():
        if (name.startswith("fg.") and name.endswith(".accepts")
                and ".stage." in name):
            out.setdefault(name[len("fg."):name.index(".stage.")], None)
    return list(out)


def _stage_names(registry: MetricsRegistry, program: str) -> list[str]:
    """Stages that recorded sampled accepts, in registry (sorted) order."""
    prefix = f"fg.{program}.stage."
    names = []
    for name in registry.names():
        if name.startswith(prefix) and name.endswith(".accepts"):
            metric = registry.get(name)
            if isinstance(metric, Counter) and metric.samples is not None:
                names.append(name[len(prefix):-len(".accepts")])
    return names


def stage_series(registry: MetricsRegistry, program: str,
                 t0: float = 0.0, t1: Optional[float] = None,
                 bins: int = 12) -> list[StageSeries]:
    """Binned accepts / queue-wait series for every stage of ``program``.

    Reads the sampled ``fg.<program>.stage.<stage>.accepts`` and
    ``.accept_wait_seconds`` counters; stages instrumented before
    sampling was enabled (none, today) are skipped.  ``t1`` defaults to
    the registry clock's now.
    """
    end = registry.clock() if t1 is None else t1
    edges = _edges(t0, end, bins)
    out = []
    for stage in _stage_names(registry, program):
        prefix = f"fg.{program}.stage.{stage}"
        accepts = registry.get(f"{prefix}.accepts")
        waits = registry.get(f"{prefix}.accept_wait_seconds")
        series = []
        for lo, hi in edges:
            n = accepts.window_delta(lo, hi) if isinstance(
                accepts, Counter) and accepts.samples is not None else 0.0
            w = waits.window_delta(lo, hi) if isinstance(
                waits, Counter) and waits.samples is not None else 0.0
            series.append(SeriesBin(lo, hi, n, w))
        out.append(StageSeries(stage, tuple(series)))
    return out


def render_stage_series(series: Sequence[StageSeries]) -> str:
    """Monospace table: per-stage totals plus the wait-profile sparkline.

    The profile shows *when* each stage was starved of input — a stage
    whose waits cluster at the start is warming up; one that waits
    throughout is downstream of the bottleneck.
    """
    if not series:
        return "(no sampled stage metrics: enable kernel metrics first)"
    label_w = min(28, max(len(s.stage) for s in series))
    nbins = max(len(s.bins) for s in series)
    lines = [f"{'stage':{label_w}} {'accepts':>8} {'wait(ms)':>9} "
             f"|{'wait profile (time ->)':{nbins}}|"]
    for s in series:
        lines.append(f"{s.stage[:label_w]:{label_w}} "
                     f"{s.total_accepts:8.0f} "
                     f"{s.total_wait * 1e3:9.3f} "
                     f"|{s.sparkline()}|")
    return "\n".join(lines)
