"""Unified observability: metrics, Chrome-trace export, bottleneck analysis.

FG's value proposition — asynchronous stages overlapping disk and network
latency — is invisible in aggregate timings; you have to *see* it.  This
package is the measurement substrate for every performance question:

* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  time-weighted histograms, recorded in **kernel time**, so virtual-time
  and real-time runs produce comparable numbers.  Attach one to any kernel
  with ``kernel.enable_metrics()``; channels, stages, and buffer pools
  instrument themselves when a registry is present.
* :mod:`repro.obs.chrome_trace` — export any
  :class:`~repro.sim.trace.Tracer` (plus gauge sample tracks) to the Trace
  Event Format that ``chrome://tracing`` and https://ui.perfetto.dev load.
* :mod:`repro.obs.bottleneck` — per-pipeline analysis that names the
  limiting stage and breaks down where every thread's blocked time went.
* :mod:`repro.obs.timeseries` — binned per-stage accept/queue-wait series,
  the ``analyze`` wait profiles.
* :mod:`repro.obs.observer` — the single event path through which FG
  programs record per-stage accept/convey/wait activity.

Surfaced via ``python -m repro analyze`` / ``python -m repro trace
--trace-out`` and the benchmark harness (``run_sort(..., observe=True)``).
See docs/OBSERVABILITY.md for the guide.
"""

from repro.obs.bottleneck import (
    BottleneckReport,
    StageBreakdown,
    analyze_bottleneck,
)
from repro.obs.chrome_trace import (
    chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import ProgramObserver
from repro.obs.timeseries import (
    SeriesBin,
    StageSeries,
    instrumented_programs,
    render_stage_series,
    stage_series,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ProgramObserver",
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
    "analyze_bottleneck",
    "BottleneckReport",
    "StageBreakdown",
    "SeriesBin",
    "StageSeries",
    "stage_series",
    "instrumented_programs",
    "render_stage_series",
]
