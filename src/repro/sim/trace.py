"""Execution tracing: event timelines and text Gantt charts.

Attach a :class:`Tracer` to a :class:`~repro.sim.virtual.VirtualTimeKernel`
and every process records state transitions (spawn, park-with-reason,
resume, finish).  Afterwards the tracer reconstructs per-process
run/blocked intervals, computes busy fractions, and renders a monospace
Gantt chart — the tool we use to *see* FG's latency overlap instead of
inferring it from totals.

Example::

    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    ...run...
    print(tracer.gantt(width=72))
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Sequence

__all__ = ["TraceEvent", "Tracer"]

#: event kinds recorded by the kernel
SPAWN = "spawn"
PARK = "park"
RESUME = "resume"
FINISH = "finish"
#: instantaneous marker recorded by the fault injector (not a state
#: transition: interval reconstruction ignores it; the Chrome exporter
#: renders it as an instant event)
FAULT = "fault"
#: instantaneous marker recorded by the repro.recover manager for every
#: recovery decision (resume from checkpoint / speculate / reassign /
#: race winner); same rendering rules as FAULT
RECOVER = "recover"
#: instantaneous marker recorded by the repro.sched scheduler for every
#: scheduling decision (submit / admit / place / preempt / finish);
#: same rendering rules as FAULT — and the substrate of the scheduler's
#: byte-exact decision log
SCHED = "sched"


class TraceEvent(NamedTuple):
    """One state transition of one process.

    A tuple because an observed run records one on each side of every
    switch: :meth:`Tracer.record` builds it with ``tuple.__new__``, and
    it carries no per-instance ``__dict__``.
    """

    time: float
    process: str
    kind: str      #: spawn | park | resume | finish
    detail: str    #: for parks: what the process is waiting on


@dataclasses.dataclass(frozen=True)
class Interval:
    """A contiguous span in one state."""

    start: float
    end: float
    state: str     #: "run" | "work" | "contend" | "wait"
    detail: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def classify_park(detail: str) -> str:
    """Map a park reason to a semantic state.

    Under the virtual-time kernel a process consumes modeled time by
    *sleeping* on a cost-model timeout, so:

    * ``sleep ...``   -> "work"    (performing a timed operation)
    * ``acquire ...`` / ``reserve ...`` -> "contend" (queued on a busy
      resource: disk arm, NIC, core, bounded mailbox)
    * everything else (queue get/put, recv, join) -> "wait" (idle,
      waiting for data or completion)
    """
    if detail.startswith("sleep"):
        return "work"
    if detail.startswith("acquire") or detail.startswith("reserve"):
        return "contend"
    return "wait"


class Tracer:
    """Collects trace events and derives timelines from them."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    # -- recording (called by the kernel) -----------------------------------

    def record(self, time: float, process: str, kind: str,
               detail: str = "") -> None:
        # tuple.__new__ skips the generated __new__'s argument parsing
        self.events.append(
            tuple.__new__(TraceEvent, (time, process, kind, detail)))

    # -- analysis ------------------------------------------------------------

    def process_names(self) -> list[str]:
        """Processes in order of first appearance."""
        seen: dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.process, None)
        return list(seen)

    def node0_stage_names(self) -> list[str]:
        """Node 0's FG stage threads, in order of first appearance: the
        rows of the Gantt charts and bottleneck reports (SPMD programs
        assemble the same pipelines on every rank, so rank 0 is
        representative; sources, sinks, family drivers and the ranks'
        ``main`` processes do no stage work)."""
        return [n for n in self.process_names()
                if "@0" in n and ".source" not in n and ".sink" not in n
                and "family" not in n and not n.startswith("main")]

    def intervals(self, process: str) -> list[Interval]:
        """State intervals of one process, in time order."""
        out: list[Interval] = []
        state: Optional[str] = None
        since = 0.0
        detail = ""
        for ev in self.events:
            if ev.process != process:
                continue
            if ev.kind == SPAWN:
                state, since, detail = "wait", ev.time, "awaiting start"
            elif ev.kind == RESUME:
                if state is not None and ev.time > since:
                    out.append(Interval(since, ev.time, state, detail))
                state, since, detail = "run", ev.time, ""
            elif ev.kind == PARK:
                if state is not None and ev.time > since:
                    out.append(Interval(since, ev.time, "run", ""))
                state, since = classify_park(ev.detail), ev.time
                detail = ev.detail
            elif ev.kind == FINISH:
                if state is not None and ev.time > since:
                    out.append(Interval(since, ev.time, state, detail))
                state = None
        return out

    def busy_time(self, process: str) -> float:
        """Time ``process`` spent doing timed work (run + work states)."""
        return sum(iv.duration for iv in self.intervals(process)
                   if iv.state in ("run", "work"))

    def span(self) -> tuple[float, float]:
        """(first, last) event times, or (0, 0) with no events."""
        if not self.events:
            return 0.0, 0.0
        times = [ev.time for ev in self.events]
        return min(times), max(times)

    # -- rendering ------------------------------------------------------------------

    #: Gantt cell glyph per state, in precedence order on ties
    _GLYPHS = (("work", "#"), ("run", "#"), ("contend", "+"),
               ("wait", "."))

    def gantt(self, width: int = 72,
              processes: Optional[Sequence[str]] = None) -> str:
        """Monospace Gantt: '#' doing timed work, '+' queued on a busy
        resource, '.' waiting for data, ' ' not alive.

        Each character cell covers span/width seconds and shows the state
        the process spent the most of that cell in.
        """
        if width < 8:
            raise ValueError("width must be >= 8")
        t0, t1 = self.span()
        total = t1 - t0
        if total <= 0:
            return "(no timeline: zero-duration trace)"
        names = list(processes) if processes is not None \
            else self.process_names()
        label_w = min(28, max((len(n) for n in names), default=4))
        lines = [f"{'':{label_w}} |t0={t0:.6g}s ... t1={t1:.6g}s  "
                 "('#'=work, '+'=resource queue, '.'=waiting)"]
        cell = total / width
        for name in names:
            ivs = self.intervals(name)
            row = []
            for c in range(width):
                lo = t0 + c * cell
                hi = lo + cell
                shares = {state: 0.0 for state, _ in self._GLYPHS}
                for iv in ivs:
                    overlap = min(hi, iv.end) - max(lo, iv.start)
                    if overlap > 0:
                        shares[iv.state] = shares.get(iv.state, 0.0) \
                            + overlap
                if not any(shares.values()):
                    row.append(" ")
                else:
                    best = max(self._GLYPHS,
                               key=lambda sg: shares.get(sg[0], 0.0))
                    row.append(best[1])
            label = name[:label_w]
            lines.append(f"{label:{label_w}} |{''.join(row)}|")
        return "\n".join(lines)
