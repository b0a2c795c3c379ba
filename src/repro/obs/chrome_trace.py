"""Chrome-trace export: view FG runs in chrome://tracing or Perfetto.

Converts a :class:`~repro.sim.trace.Tracer`'s event log into the Trace
Event Format (the ``traceEvents`` JSON that ``chrome://tracing`` and
https://ui.perfetto.dev load directly).  Each FG process becomes one named
thread row; every run/work/contend/wait interval becomes a complete
("X"-phase) slice with its park reason in ``args.detail``; gauges recorded
with ``record_samples=True`` (queue occupancy, buffers in flight) become
counter tracks.  An observed run keeps those series only when it is
traced (:func:`repro.prov.observed_cluster`), which every run that
exports a trace is.

Times are exported in microseconds, as the format requires.  Under the
virtual-time kernel the export is deterministic: same program, same seed,
byte-identical JSON.

Typical use::

    from repro.obs import write_chrome_trace
    write_chrome_trace("trace.json", tracer, metrics=kernel.metrics)
    # then open trace.json in https://ui.perfetto.dev
"""

from __future__ import annotations

import json
from typing import IO, Optional, Sequence, Union

from repro.obs.bottleneck import normalize_reason
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import FAULT, RECOVER, SCHED, Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "write_metrics_json"]

#: synthetic process id for all FG threads (one simulated program)
_PID = 1


def _us(seconds: float) -> float:
    """Kernel seconds -> trace microseconds, rounded for stable JSON."""
    return round(seconds * 1e6, 3)


def chrome_trace(tracer: Tracer,
                 metrics: Optional[MetricsRegistry] = None,
                 processes: Optional[Sequence[str]] = None) -> dict:
    """Build a Trace Event Format document from a recorded trace.

    ``processes`` filters which FG processes get thread rows (by default
    all of them, in order of first appearance).  ``metrics`` adds counter
    tracks for every gauge that recorded samples.
    """
    names = (list(processes) if processes is not None
             else tracer.process_names())
    events: list[dict] = []
    for tid, name in enumerate(names):
        events.append({"ph": "M", "name": "thread_name", "pid": _PID,
                       "tid": tid, "args": {"name": name}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": _PID,
                       "tid": tid, "args": {"sort_index": tid}})
    for tid, name in enumerate(names):
        for iv in tracer.intervals(name):
            event = {
                "ph": "X",
                "name": normalize_reason(iv.state, iv.detail),
                "cat": iv.state,
                "pid": _PID,
                "tid": tid,
                "ts": _us(iv.start),
                "dur": _us(iv.duration),
            }
            if iv.detail:
                event["args"] = {"detail": iv.detail}
            events.append(event)
    # injected faults, recovery and scheduling decisions are
    # instantaneous markers: render each as a thread-scoped instant event
    # on the process it struck, or on a dedicated per-kind row
    # ("faults" / "recovery" / "scheduler") when it fired outside any
    # traced process
    marker_events = [ev for ev in tracer.events
                     if ev.kind in (FAULT, RECOVER, SCHED)]
    if marker_events:
        tid_of = {name: tid for tid, name in enumerate(names)}
        extra_tid: dict[str, int] = {}
        next_tid = len(names)
        row_of = {FAULT: "faults", RECOVER: "recovery", SCHED: "scheduler"}
        for ev in marker_events:
            tid = tid_of.get(ev.process)
            if tid is None:
                row = row_of[ev.kind]
                if row not in extra_tid:
                    extra_tid[row] = next_tid
                    events.append({"ph": "M", "name": "thread_name",
                                   "pid": _PID, "tid": next_tid,
                                   "args": {"name": row}})
                    next_tid += 1
                tid = extra_tid[row]
            events.append({"ph": "i", "name": ev.detail or ev.kind,
                           "cat": ev.kind, "s": "t", "pid": _PID,
                           "tid": tid, "ts": _us(ev.time)})
    if metrics is not None:
        for metric in metrics:
            samples = getattr(metric, "samples", None)
            if not samples:
                continue
            for t, value in samples:
                events.append({"ph": "C", "name": metric.name,
                               "pid": _PID, "tid": 0, "ts": _us(t),
                               "args": {"value": value}})
    t0, t1 = tracer.span()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "span_seconds": t1 - t0,
            "process_count": len(names),
            **_version_meta(),
        },
    }


def _version_meta() -> dict:
    """Code/version fingerprint stamped into every export, so a trace or
    metrics artifact can always be matched to the code that produced it
    (the same identity provenance records carry — see repro.prov)."""
    from repro.prov.fingerprint import version_info

    return version_info()


def write_chrome_trace(path_or_file: Union[str, IO[str]], tracer: Tracer,
                       metrics: Optional[MetricsRegistry] = None,
                       processes: Optional[Sequence[str]] = None) -> dict:
    """Write :func:`chrome_trace` output as JSON; returns the document."""
    doc = chrome_trace(tracer, metrics=metrics, processes=processes)
    _dump(doc, path_or_file)
    return doc


def write_metrics_json(path_or_file: Union[str, IO[str]],
                       metrics: MetricsRegistry) -> dict:
    """Write a registry snapshot as JSON; returns the document.

    The snapshot itself is unchanged (so its digest stays comparable to
    in-memory snapshots); the exported document wraps it with a ``meta``
    stamp identifying the code that produced it.
    """
    doc = dict(metrics.snapshot())
    doc["meta"] = _version_meta()
    _dump(doc, path_or_file)
    return doc


def _dump(doc: dict, path_or_file: Union[str, IO[str]]) -> None:
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(doc, path_or_file, sort_keys=True)
        path_or_file.write("\n")
