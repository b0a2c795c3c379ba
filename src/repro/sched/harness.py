"""One-call multi-tenant runs: cluster + scheduler + stats + provenance.

:func:`run_schedule` is the entry point the CLI, the benchmark, and the
tests share: feed it an :class:`~repro.sched.workload.ArrivalTrace` and
it builds the kernel and cluster, starts the scheduler, submits every
arrival at its virtual time, runs to completion, and returns a
:class:`SchedReport` with per-tenant latency percentiles, utilization,
the full decision log, and (by default) a replayable ``sched``
provenance record whose digests cover the decision log, the metrics
snapshot, and the kernel trace.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping, Optional, Union

from repro.sched.job import Job, JobState, Quota
from repro.sched.policy import PlacementPolicy
from repro.sched.scheduler import DEFAULT_TAG_STRIDE, Scheduler
from repro.sched.workload import ArrivalTrace

__all__ = ["SchedReport", "percentile", "run_schedule"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    # nearest-rank: ceil(q * n), rounded first so float wobble in q * n
    # (e.g. 0.50 * 6 = 2.9999...) cannot shift the rank
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclasses.dataclass
class SchedReport:
    """Everything one multi-tenant run produced."""

    policy: str
    n_nodes: int
    makespan: float
    #: fraction of node-time spent running jobs
    utilization: float
    #: tenant -> {jobs, done, failed, preemptions, p50, p99, mean}
    tenants: dict[str, dict]
    jobs: list[Job]
    #: the scheduler's decision log: entries, text, the text's sha256
    decisions: list[dict]
    decision_text: str
    decision_digest: str
    metrics: dict
    provenance: Optional[Any] = None
    #: OS threads that carried the run's processes
    #: (``Kernel.threads_started``); repeats exactly
    threads_started: int = 0

    @property
    def processes(self) -> int:
        """Kernel processes spawned (``kernel.processes_spawned``)."""
        return int(self.metrics["counters"]["kernel.processes_spawned"]
                   ["value"])

    @property
    def done(self) -> int:
        return sum(1 for j in self.jobs if j.state is JobState.DONE)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.state is JobState.FAILED)

    def describe(self) -> str:
        lines = [
            f"sched run: policy={self.policy} nodes={self.n_nodes} "
            f"jobs={len(self.jobs)} done={self.done} "
            f"failed={self.failed}",
            f"  makespan     {self.makespan:.3f}s  "
            f"utilization {self.utilization:.1%}",
            f"  decisions    {len(self.decisions)} "
            f"(sha256 {self.decision_digest[:16]}…)",
            f"  processes    {self.processes} on "
            f"{self.threads_started} OS threads",
        ]
        for tenant in sorted(self.tenants):
            st = self.tenants[tenant]
            lines.append(
                f"  tenant {tenant:10s} jobs={st['jobs']:4d} "
                f"done={st['done']:4d} preempt={st['preemptions']:3d} "
                f"p50={st['p50']:8.3f}s p99={st['p99']:8.3f}s "
                f"mean={st['mean']:8.3f}s")
        return "\n".join(lines)


def run_schedule(trace: ArrivalTrace, *,
                 n_nodes: int = 4,
                 quotas: Mapping[str, Quota],
                 policy: Union[PlacementPolicy, str] = "fifo",
                 seed: int = 0,
                 preempt: bool = False,
                 speculation_slots: int = 0,
                 tag_stride: int = DEFAULT_TAG_STRIDE,
                 hardware: Optional[Any] = None,
                 trace_path: Optional[str] = None,
                 provenance: bool = True) -> SchedReport:
    """Run one multi-tenant schedule to completion and report.

    Deterministic end to end: the same trace, quotas, policy, and seed
    produce a byte-identical decision log (and identical digests in the
    provenance record, when captured).  Provenance is only captured for
    fully describable runs — default hardware — matching the chaos
    harness's rule.  The kernel is traced only when the trace is read:
    written to ``trace_path`` or digested into the provenance record, the
    rule every harness keeps.  An untraced run has the same timeline,
    decision log and metrics.
    """
    from repro.prov import observed_cluster

    describable = provenance and hardware is None
    cluster, capture = observed_cluster(
        n_nodes, trace=describable or trace_path is not None,
        capture=describable, hardware=hardware)
    kernel = cluster.kernel
    sched = Scheduler(cluster, quotas, policy, preempt=preempt,
                      speculation_slots=speculation_slots,
                      tag_stride=tag_stride, seed=seed)
    sched.start()

    def submitter() -> None:
        for arrival in trace:
            delay = arrival.time - kernel.now()
            if delay > 0:
                kernel.sleep(delay)
            sched.submit(arrival.spec)
        sched.close()

    kernel.spawn(submitter, name="sched.submitter")
    kernel.run()

    makespan = kernel.now()
    utilization = (sched.busy_node_seconds / (n_nodes * makespan)
                   if makespan > 0 else 0.0)

    tenants: dict[str, dict] = {}
    for tenant in sorted(sched.quotas):
        mine = [j for j in sched.jobs.values()
                if j.spec.tenant == tenant]
        latencies = [j.latency for j in mine
                     if j.state is JobState.DONE]
        tenants[tenant] = {
            "jobs": len(mine),
            "done": len(latencies),
            "failed": sum(1 for j in mine
                          if j.state is JobState.FAILED),
            "preemptions": sum(j.preemptions for j in mine),
            "p50": percentile(latencies, 0.50),
            "p99": percentile(latencies, 0.99),
            "mean": (sum(latencies) / len(latencies)
                     if latencies else 0.0),
        }

    assert kernel.metrics is not None
    metrics = kernel.metrics.snapshot()
    decision_digest = sched.decisions.digest()

    if trace_path is not None:
        from repro.obs.chrome_trace import write_chrome_trace

        write_chrome_trace(trace_path, kernel.tracer,
                           metrics=kernel.metrics)

    record = None
    if capture is not None:
        record = capture.record(
            "sched",
            {"trace": trace.to_json(),
             "n_nodes": n_nodes,
             "quotas": {t: q.to_json()
                        for t, q in sorted(sched.quotas.items())},
             "policy": sched.policy.name,
             "seed": seed,
             "preempt": preempt,
             "speculation_slots": speculation_slots,
             "tag_stride": tag_stride},
            {"scheduler": seed},
            snapshot=metrics, logs=(sched.decisions,),
            decisions=decision_digest)
        capture.detach()

    return SchedReport(
        policy=sched.policy.name,
        n_nodes=n_nodes,
        makespan=makespan,
        utilization=utilization,
        tenants=tenants,
        jobs=[sched.jobs[i] for i in sorted(sched.jobs)],
        decisions=list(sched.decisions.entries),
        decision_text=sched.decisions.text(),
        decision_digest=decision_digest,
        metrics=metrics,
        provenance=record,
        threads_started=kernel.threads_started,
    )
