"""Spans and counts recorded from outside the program.

The traced pass wraps public functions at the layer boundaries — the
calls the harnesses make into ``cluster``, ``workloads``, ``sorting``,
``prov`` — plus four in-kernel ones that never block (``FGProgram.start``,
``BlockMerger.merge_into``, ``RecordSchema.sort``) or are only counted
(``Journal.append``).  Every wrapper records one span: name, start, end,
parent span, rep id, and an optional record count.  Spans stay in memory
and are written once, when the subprocess ends.

The virtual-time kernel runs exactly one thread at a time and none of the
timed in-kernel functions hands the run token over, so one shared span
stack is safe: an in-kernel span's parent is the ``cluster.run_s`` span
the main thread is blocked in.

Nothing under ``src/`` is edited; ``begin()`` swaps module and class
attributes and ``end()`` puts the originals back, so plain reps in the
same subprocess run unwrapped code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from typing import Any, Callable, Optional

from repro.bench.harness import SortRun, stripe_block_records
from repro.pdm.records import RecordSchema
from repro.pdm.striped import StripedFile

#: (module, owner attribute path or "", attribute, span name, how)
#: how: "span" times the call; "records" also stores the integer the
#: call returns; "len" stores len(first positional argument); "count"
#: records a zero-length span (the call blocks on the simulated disk, so
#: its wall time would include other processes' work)
PATCHES = [
    ("repro.cluster.cluster", "Cluster", "__init__", "cluster.build_s", "span"),
    ("repro.sim.virtual", "VirtualTimeKernel", "run", "cluster.run_s", "span"),
    ("repro.workloads.generator", "", "generate_input",
     "workloads.generate_s", "span"),
    ("repro.bench.harness", "", "generate_input",
     "workloads.generate_s", "span"),
    ("workloads", "", "groupby_generate", "workloads.generate_s", "span"),
    ("workloads", "", "sched_generate", "workloads.generate_s", "span"),
    ("repro.sorting.verify", "", "verify_striped_output",
     "sorting.verify_s", "span"),
    ("repro.bench.harness", "", "verify_striped_output",
     "sorting.verify_s", "span"),
    ("workloads", "", "groupby_verify", "sorting.verify_s", "span"),
    ("workloads", "", "sched_verify", "sorting.verify_s", "span"),
    ("repro.prov", "", "trace_digest", "prov.record_s", "span"),
    ("repro.prov", "", "metrics_digest", "prov.record_s", "span"),
    ("repro.prov", "", "version_info", "prov.record_s", "span"),
    ("repro.obs.metrics", "MetricsRegistry", "snapshot",
     "obs.snapshot_s", "span"),
    ("repro.pdm.striped", "StripedFile", "read_all",
     "pdm.read_output_s", "span"),
    ("repro.core.program", "FGProgram", "start", "core.start_s", "span"),
    ("repro.sorting.merge", "BlockMerger", "merge_into",
     "sorting.merge_s", "records"),
    ("repro.pdm.records", "RecordSchema", "sort",
     "sorting.block_sort_s", "len"),
    ("repro.pdm.journal", "Journal", "append", "pdm.journal_append", "count"),
]


class Recorder:
    """In-memory span store for one subprocess."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, rep id, n or None]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.rep = 0
        #: the Cluster built during the current rep (for its counters)
        self.cluster: Any = None
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str,
              how: str) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, clock(), None,
                    stack[-1] if stack else None, self.rep, None]
            spans.append(span)
            if how == "count":
                span[2] = span[1]
                return fn(*args, **kwargs)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if how == "records":
                span[5] = int(result)
            elif how == "len":
                span[5] = len(args[1])  # args[0] is self
            return result

        return wrapper

    def begin(self, rep: int) -> None:
        """Start a traced rep: wrap every boundary in PATCHES."""
        self.rep = rep
        self.cluster = None
        for module_name, owner_name, attr, span_name, how in PATCHES:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span_name, how)
            if span_name == "cluster.build_s":
                wrapped = self._capturing(wrapped)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def _capturing(self, init: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(init)
        def wrapper(cluster: Any, *args: Any, **kwargs: Any) -> None:
            init(cluster, *args, **kwargs)
            self.cluster = cluster
        return wrapper

    def end(self) -> None:
        """End the traced rep: put every original back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-rep views --------------------------------------------------

    def totals(self, rep: int) -> dict[str, dict[str, float]]:
        """name -> {seconds, calls, records} over one rep's spans, for
        every name in PATCHES (zeros where the rep never got there)."""
        out: dict[str, dict[str, float]] = {
            patch[3]: {"seconds": 0.0, "calls": 0, "records": 0}
            for patch in PATCHES}
        for name, start, end, _parent, span_rep, n in self.spans:
            if span_rep != rep:
                continue
            agg = out[name]
            agg["seconds"] += end - start
            agg["calls"] += 1
            agg["records"] += n or 0
        return out

    def top_level_seconds(self, rep: int) -> float:
        return sum(end - start
                   for _n, start, end, parent, span_rep, _c in self.spans
                   if span_rep == rep and parent is None)

    def write(self, path: str, meta: dict) -> None:
        doc = {"meta": meta,
               "fields": ["name", "start", "end", "parent", "rep", "n"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _counter(snapshot: Optional[dict], name: str) -> float:
    if not snapshot:
        return 0.0
    entry = snapshot.get("counters", {}).get(name)
    return float(entry["value"]) if entry is not None else 0.0


def counts(rep: Any, recorder: Recorder,
           totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The exact-repeat counts of one traced rep, read from counters the
    program already exposes (kernel, disks, network, metrics registry,
    harness reports) and from the rep's span ``totals``."""
    cluster = recorder.cluster
    kernel = cluster.kernel
    report = rep.report
    snapshot = None
    if isinstance(getattr(report, "metrics", None), dict):
        snapshot = report.metrics  # ChaosReport / SchedReport
    elif kernel.metrics is not None:
        snapshot = kernel.metrics.snapshot()
    conveys = sum(
        float(v["value"])
        for k, v in (snapshot or {}).get("counters", {}).items()
        if k.startswith("fg.") and k.endswith(".conveys"))
    def calls(name: str) -> float:
        return float(totals[name]["calls"])

    def records(name: str) -> float:
        return float(totals[name]["records"])

    return {
        "sim.switches": float(kernel.switches),
        "sim.processes": _counter(snapshot, "kernel.processes_spawned"),
        "core.program_starts": calls("core.start_s"),
        "core.buffers_conveyed": conveys,
        "cluster.disk_ops": float(sum(n.disk.reads + n.disk.writes
                                      for n in cluster.nodes)),
        "cluster.disk_bytes": float(cluster.total_bytes_io()),
        "cluster.net_msgs": float(cluster.network.messages),
        "cluster.net_bytes": float(cluster.total_bytes_sent()),
        "pdm.journal_appends": calls("pdm.journal_append"),
        "sorting.merged_records": records("sorting.merge_s"),
        "sorting.block_sorted_records": records("sorting.block_sort_s"),
        "faults.fired": float(
            (getattr(report, "fault_summary", None) or {}).get("total", 0)),
        "faults.retries": (_counter(snapshot, "retry.disk.retries")
                           + _counter(snapshot, "retry.net.retransmits")),
        "recover.decisions": float(
            len(getattr(report, "recovery_decisions", ()) or ())),
        "sched.decisions": float(len(getattr(report, "decisions", ()) or ())),
        "obs.trace_events": float(len(kernel.tracer.events)
                                  if kernel.tracer is not None else 0),
    }


def simulated(rep: Any, recorder: Recorder) -> dict[str, float]:
    """Simulated-time ratios of one traced rep (exact at one seed)."""
    cluster = recorder.cluster
    tenants = getattr(rep.report, "tenants", None) or {}
    return {
        "cluster.disk_busy_frac": cluster.max_disk_busy() / rep.sim_s,
        "sched.light_p99_sim_s": float(tenants.get("light", {})
                                       .get("p99", 0.0)),
    }


def output_sha256(rep: Any, recorder: Recorder) -> Optional[str]:
    """sha256 of a run_sort output, read through the captured cluster
    (run_sort itself returns neither the cluster nor the bytes)."""
    run = rep.report
    if not isinstance(run, SortRun):
        return None
    cluster = recorder.cluster
    n_total = run.n_nodes * run.n_per_node
    out = StripedFile(cluster, "output", RecordSchema(run.record_bytes),
                      stripe_block_records(n_total, run.n_nodes)).read_all()
    return hashlib.sha256(out.tobytes()).hexdigest()
