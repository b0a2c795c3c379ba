"""Bottleneck analysis: which stage limits the pipeline, and why.

In a buffer-recycling pipeline, throughput is set by the stage that is
busy the largest fraction of the span — every other stage spends the
difference waiting for it (starved upstream of the bottleneck's output
queue, or backed up behind its input queue).  :func:`analyze_bottleneck`
reconstructs per-process state totals from a :class:`~repro.sim.trace.Tracer`
and names that stage, with a breakdown of where every process's blocked
time went (which queue, which resource).

This is the measurement TPIE-style pipelining work says you need before
tuning: "make the bottleneck faster" requires knowing the bottleneck.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.sim.trace import Tracer

__all__ = ["StageBreakdown", "BottleneckReport", "analyze_bottleneck",
           "normalize_reason"]


def normalize_reason(state: str, detail: str) -> str:
    """Collapse a park reason to a stable, aggregatable label.

    Sleep reasons embed the wake-up time (``sleep until t=0.0123``), which
    would make every slice unique; they all become ``"work"``.  Queue and
    resource reasons (``get <- fg.p->sort``, ``acquire 1x node0.disk``)
    are already stable and kept verbatim.
    """
    if state in ("run", "work") or detail.startswith("sleep"):
        return state if state in ("run", "work") else "work"
    return detail or state


@dataclasses.dataclass(frozen=True)
class StageBreakdown:
    """State totals for one process over the analyzed span."""

    process: str
    busy: float     #: seconds running or doing timed work
    contend: float  #: seconds queued on a busy resource
    wait: float     #: seconds idle, waiting for data or completion
    #: normalized blocked reason -> seconds (contend + wait together)
    reasons: dict[str, float]

    @property
    def total(self) -> float:
        return self.busy + self.contend + self.wait

    def busy_fraction(self, span: float) -> float:
        return self.busy / span if span > 0 else 0.0

    def top_reasons(self, n: int = 3) -> list[tuple[str, float]]:
        """The ``n`` largest blocked-time reasons, descending."""
        ranked = sorted(self.reasons.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]


@dataclasses.dataclass(frozen=True)
class BottleneckReport:
    """Per-process breakdowns plus the limiting stage."""

    t0: float
    t1: float
    #: breakdowns sorted by busy time, descending
    breakdowns: tuple[StageBreakdown, ...]

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    @property
    def bottleneck(self) -> Optional[StageBreakdown]:
        """The process with the most busy time (None if trace is empty)."""
        return self.breakdowns[0] if self.breakdowns else None

    def render(self, top_reasons: int = 3) -> str:
        """Human-readable report naming the limiting stage."""
        if not self.breakdowns:
            return "(no processes traced)"
        span = max(self.span, 1e-12)
        label_w = min(32, max(len(b.process) for b in self.breakdowns))
        lines = [f"bottleneck analysis over {span * 1e3:.3f} ms "
                 f"({len(self.breakdowns)} process(es))",
                 f"{'process':{label_w}} {'busy%':>8} {'contend%':>9} "
                 f"{'wait%':>8}"]
        for b in self.breakdowns:
            mark = "  <-- bottleneck" if b is self.bottleneck else ""
            lines.append(
                f"{b.process[:label_w]:{label_w}} "
                f"{100 * b.busy / span:7.1f}% "
                f"{100 * b.contend / span:8.1f}% "
                f"{100 * b.wait / span:7.1f}%{mark}")
        limiter = self.bottleneck
        lines.append("")
        lines.append(
            f"bottleneck: {limiter.process!r} is busy "
            f"{100 * limiter.busy_fraction(span):.1f}% of the span; "
            f"the pipeline cannot finish faster than its work")
        reasons = limiter.top_reasons(top_reasons)
        if reasons:
            lines.append(f"where {limiter.process!r} blocks:")
            for reason, seconds in reasons:
                lines.append(f"  {seconds * 1e3:10.3f} ms  {reason}")
        return "\n".join(lines)


def analyze_bottleneck(tracer: Tracer,
                       processes: Optional[Sequence[str]] = None
                       ) -> BottleneckReport:
    """Build a :class:`BottleneckReport` from a recorded trace.

    ``processes`` restricts the analysis (e.g. to one program's stage
    threads); by default every traced process is included.  The bottleneck
    is the process with the most busy (run + timed-work) seconds.
    """
    names = (list(processes) if processes is not None
             else tracer.process_names())
    t0, t1 = tracer.span()
    breakdowns: list[StageBreakdown] = []
    for name in names:
        busy = contend = wait = 0.0
        reasons: dict[str, float] = {}
        for iv in tracer.intervals(name):
            if iv.state in ("run", "work"):
                busy += iv.duration
            elif iv.state == "contend":
                contend += iv.duration
            else:
                wait += iv.duration
            if iv.state in ("contend", "wait"):
                reason = normalize_reason(iv.state, iv.detail)
                reasons[reason] = reasons.get(reason, 0.0) + iv.duration
        breakdowns.append(StageBreakdown(process=name, busy=busy,
                                         contend=contend, wait=wait,
                                         reasons=reasons))
    breakdowns.sort(key=lambda b: (-b.busy, b.process))
    return BottleneckReport(t0=t0, t1=t1, breakdowns=tuple(breakdowns))
