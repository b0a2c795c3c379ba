"""One-call chaos harness: a sorter under a seeded fault plan, verified.

:func:`run_chaos_dsort` and :func:`run_chaos_csort` build a faulted
cluster, sort a generated dataset, verify the striped output against the
dataset manifest, and return a :class:`ChaosReport` with everything a
caller needs to assert determinism: a digest of the output bytes, a
digest of the full scheduler event timeline, the fired faults, and the
metrics snapshot.  Two calls with the same arguments must produce
byte-identical reports — that property is what the CLI's ``repro chaos
--check-determinism`` and the chaos property tests assert.

The dsort harness optionally runs under the fine-grained recovery
manager (``recover=RecoverPolicy(...)``): block-level checkpoints,
speculative backups, and partition re-assignment then absorb faults
below the pass-restart level.  Every fired fault and every recovery
decision lands in the report and in the provenance record.  csort has
no in-run recovery machinery — its chaos coverage is the transient
fault model absorbed by the disk/NIC retry layer — so
``run_chaos_csort`` takes no ``recover``.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Optional, Sequence

from repro.errors import FaultError
from repro.faults.plan import FaultPlan, chaos_plan
from repro.jsondoc import to_doc

__all__ = ["ChaosReport", "run_chaos_csort", "run_chaos_dsort"]


@dataclasses.dataclass
class ChaosReport:
    """Everything observable about one chaos run (JSON-able via asdict)."""

    seed: int
    n_nodes: int
    total_records: int
    #: simulated seconds for the whole run
    elapsed: float
    #: cluster-wide pass restarts the recovery layer needed
    pass_restarts: int
    #: True when the striped output matched the manifest exactly
    verified: bool
    #: sha256 over the raw output record bytes, in global order
    output_digest: str
    #: sha256 over the scheduler event timeline ("" when tracing was off)
    trace_digest: str
    #: every fault the injector fired, in virtual-time order: its
    #: decision log's entries ``{time, kind, site, rank, detail}``
    fault_events: list
    #: full metrics snapshot (counters/gauges/histograms)
    metrics: dict
    #: sha256 over the metrics snapshot in canonical JSON
    metrics_digest: str = ""
    #: the run's provenance record (None when tracing was off or the
    #: run used non-default hardware); see repro.prov
    provenance: Optional[Any] = None
    #: which sorter ran ("dsort" or "csort")
    sorter: str = "dsort"
    #: the recovery manager's decision log (empty without ``recover``)
    recovery_decisions: list = dataclasses.field(default_factory=list)
    #: per-rank phase timings (one dict per rank; keys depend on the
    #: sorter) — lets callers aim fault windows at a specific pass
    rank_times: list = dataclasses.field(default_factory=list)
    #: OS threads that carried the run's processes
    #: (``Kernel.threads_started``); repeats exactly
    threads_started: int = 0

    @property
    def fault_summary(self) -> dict:
        """Fired faults, in total and by kind (JSON-able)."""
        return {"total": len(self.fault_events),
                "by_kind": _by_kind(self.fault_events)}

    @property
    def processes(self) -> int:
        """Kernel processes spawned (``kernel.processes_spawned``)."""
        return int(self.metrics["counters"]["kernel.processes_spawned"]
                   ["value"])

    def describe(self) -> str:
        """Multi-line human summary (used by ``repro chaos``)."""
        lines = [
            f"chaos {self.sorter}: seed={self.seed} nodes={self.n_nodes} "
            f"records={self.total_records}",
            f"  elapsed          {self.elapsed:.3f} simulated s",
            f"  processes        {self.processes} on "
            f"{self.threads_started} OS threads",
            f"  verified         {self.verified}",
            f"  pass restarts    {self.pass_restarts}",
            f"  faults fired     {self.fault_summary.get('total', 0)} "
            f"{self.fault_summary.get('by_kind', {})}",
        ]
        if self.recovery_decisions:
            lines.append(f"  recovery         "
                         f"{len(self.recovery_decisions)} decisions "
                         f"{_by_kind(self.recovery_decisions)}")
        counters = self.metrics.get("counters", {})
        for key in ("retry.disk.retries", "retry.net.retransmits",
                    "recovery.pass_restarts"):
            if key in counters:
                value = counters[key]
                if isinstance(value, dict):
                    value = value.get("value", value)
                lines.append(f"  {key:16s} {value:g}")
        lines.append(f"  output sha256    {self.output_digest[:16]}…")
        if self.trace_digest:
            lines.append(f"  trace sha256     {self.trace_digest[:16]}…")
        return "\n".join(lines)


def _by_kind(entries: list) -> dict:
    """Decision-log entries counted by kind, in first-seen order."""
    return dict(collections.Counter(entry["kind"] for entry in entries))


def _chaos_cluster(n_nodes: int, records_per_node: int, seed: int,
                   distribution: str, plan: "FaultPlan",
                   retry: Optional[Any], hardware: Optional[Any],
                   trace: bool,
                   mailbox_capacity_bytes: Optional[int] = None):
    """Capture, faulted cluster (on a fresh traced, metered kernel) and
    generated input, shared by both chaos harnesses."""
    from repro.pdm.records import RecordSchema
    from repro.prov import observed_cluster
    from repro.workloads.generator import generate_input

    # provenance is only meaningful when the run is fully describable:
    # default hardware (the record stores no hardware model) and tracing
    # on (the trace digest is part of the record's identity)
    cluster, capture = observed_cluster(
        n_nodes, trace=trace, capture=trace and hardware is None,
        hardware=hardware, fault_plan=plan, retry_policy=retry,
        mailbox_capacity_bytes=mailbox_capacity_bytes)
    manifest = generate_input(cluster, RecordSchema.paper_16(),
                              records_per_node, distribution, seed=seed)
    return capture, cluster, manifest


def _chaos_report(sorter: str, cluster: Any, capture: Optional[Any],
                  manifest: Any, config: Any, plan: FaultPlan, *,
                  seed: int, args: dict, seeds: dict,
                  rank_times: list, owners: Optional[Any] = None,
                  pass_restarts: int = 0, logs: Sequence = (),
                  verify: bool, trace: bool,
                  trace_path: Optional[str]) -> ChaosReport:
    """Everything after ``cluster.run`` — verify, digest, provenance
    record, report — for both harnesses; the arguments are what differs
    between them.  ``logs`` are the recovery manager's; the injector's
    joins them in the record only."""
    # Imports are local so that ``import repro.faults`` stays light and
    # free of cycles (the cluster layer itself imports repro.faults).
    from repro import prov
    from repro.pdm.striped import StripedFile
    from repro.sorting.verify import verify_striped_output

    kernel = cluster.kernel
    # a chaos cluster always has a plan, hence an injector
    faults = cluster.injector.decisions
    if verify:
        verify_striped_output(cluster, manifest, config.output_file,
                              config.out_block_records, owners=owners)
    output_digest = StripedFile(
        cluster, config.output_file, manifest.schema,
        config.out_block_records, owners=owners).sha256()
    if trace and trace_path is not None:
        from repro.obs.chrome_trace import write_chrome_trace
        write_chrome_trace(trace_path, kernel.tracer,
                           metrics=kernel.metrics)

    # one metrics snapshot and one trace digest per run: the report's
    # digests are the record's when there is a record
    snapshot = kernel.metrics.snapshot()
    provenance = None
    if capture is not None:
        provenance = capture.record(
            f"chaos_{sorter}", args,
            # backoff jitter draws from the injector's per-site Philox
            # streams, all derived from the plan seed
            {**seeds, "fault_plan": plan.seed, "retry_jitter": plan.seed},
            fault_plan=plan.to_json(), snapshot=snapshot,
            logs=(faults, *logs),
            output=output_digest)
        digests = provenance.digests
    else:
        digests = {"metrics": prov.metrics_digest(snapshot),
                   "trace": prov.trace_digest(kernel.tracer)
                   if trace else ""}

    return ChaosReport(
        seed=seed, n_nodes=cluster.n_nodes,
        total_records=manifest.total_records,
        elapsed=kernel.now(),  # fixed once cluster.run returned
        pass_restarts=pass_restarts,
        verified=verify,
        output_digest=output_digest,
        trace_digest=digests["trace"],
        fault_events=list(faults.entries),
        metrics=snapshot,
        metrics_digest=digests["metrics"],
        provenance=provenance,
        sorter=sorter,
        recovery_decisions=[entry for log in logs for entry in log.entries],
        rank_times=rank_times,
        threads_started=kernel.threads_started)


def run_chaos_dsort(n_nodes: int = 3, records_per_node: int = 2000,
                    seed: int = 1234, *,
                    plan: Optional[FaultPlan] = None,
                    retry: Optional[Any] = None,
                    pass_retries: int = 2,
                    distribution: str = "uniform",
                    hardware: Optional[Any] = None,
                    block_records: int = 256,
                    vertical_block_records: int = 128,
                    out_block_records: int = 256,
                    oversample: int = 8,
                    recover: Optional[Any] = None,
                    mailbox_capacity_bytes: Optional[int] = None,
                    verify: bool = True,
                    trace: bool = True,
                    trace_path: Optional[str] = None) -> ChaosReport:
    """Run one seeded chaos dsort end to end and report on it.

    ``plan`` defaults to :func:`~repro.faults.plan.chaos_plan` derived
    from ``seed`` (transient disk faults + message drops everywhere).
    ``recover`` — a :class:`~repro.recover.RecoverPolicy` — runs the
    sort under the fine-grained recovery manager (checkpoints,
    speculative backups, partition re-assignment); its decision log
    lands in the report and the provenance record.  ``trace_path``
    optionally writes a Chrome-trace JSON (with fault markers) next to
    the run.  Deterministic: same arguments, same report.
    """
    # a local import, for the reason given in _chaos_report
    from repro.sorting.dsort import DsortConfig, run_dsort

    if plan is None:
        plan = chaos_plan(seed, n_nodes)
    capture, cluster, manifest = _chaos_cluster(
        n_nodes, records_per_node, seed, distribution, plan, retry,
        hardware, trace, mailbox_capacity_bytes=mailbox_capacity_bytes)
    config = DsortConfig(block_records=block_records,
                         vertical_block_records=vertical_block_records,
                         out_block_records=out_block_records,
                         oversample=oversample, seed=seed,
                         pass_retries=pass_retries)
    manager = None
    if recover is not None:
        from repro.recover import RecoveryManager

        manager = RecoveryManager(cluster, recover)
        manager.start()
    reports = cluster.run(run_dsort, manifest.schema, config, manager)
    return _chaos_report(
        "dsort", cluster, capture, manifest, config, plan, seed=seed,
        args={"n_nodes": n_nodes,
              "records_per_node": records_per_node,
              "seed": seed,
              "retry": to_doc(retry),
              "pass_retries": pass_retries,
              "distribution": distribution,
              "block_records": block_records,
              "vertical_block_records": vertical_block_records,
              "out_block_records": out_block_records,
              "oversample": oversample,
              "recover": to_doc(recover),
              "mailbox_capacity_bytes": mailbox_capacity_bytes,
              "verify": verify},
        seeds={"workload": seed, "config": config.seed},
        owners=manager.output_owners() if manager is not None else None,
        pass_restarts=max((r.pass_restarts for r in reports
                           if not getattr(r, "dead", False)), default=0),
        rank_times=[{"rank": r.rank, "sampling": r.sampling_time,
                     "pass1": r.pass1_time, "pass2": r.pass2_time,
                     "dead": getattr(r, "dead", False)}
                    for r in reports],
        logs=(manager.decisions,) if manager is not None else (),
        verify=verify, trace=trace, trace_path=trace_path)


def run_chaos_csort(n_nodes: int = 3, records_per_node: int = 1728,
                    seed: int = 1234, *,
                    plan: Optional[FaultPlan] = None,
                    retry: Optional[Any] = None,
                    distribution: str = "uniform",
                    hardware: Optional[Any] = None,
                    out_block_records: int = 128,
                    s_override: Optional[int] = None,
                    verify: bool = True,
                    trace: bool = True,
                    trace_path: Optional[str] = None) -> ChaosReport:
    """Run one seeded chaos csort end to end and report on it.

    Same report contract as :func:`run_chaos_dsort`, same default
    ``chaos_plan``.  csort relies entirely on the disk/NIC retry layer
    — it has no pass-level restarts and no recovery manager, so the
    fault plan must stay within the transient model (the default does).
    The default shape (1728 records/node on 3 nodes) is the smallest
    chaos-scale N with a legal columnsort plan whose r admits a
    128-record output stripe.
    """
    from repro.sorting.columnsort import CsortConfig, run_csort

    if plan is None:
        plan = chaos_plan(seed, n_nodes)
    if plan.node_crashes:
        raise FaultError(
            "csort has no node-crash recovery; use run_chaos_dsort with "
            "a RecoverPolicy for crash chaos")
    capture, cluster, manifest = _chaos_cluster(
        n_nodes, records_per_node, seed, distribution, plan, retry,
        hardware, trace)
    config = CsortConfig(out_block_records=out_block_records,
                         s_override=s_override)
    reports = cluster.run(run_csort, manifest.schema, config)
    return _chaos_report(
        "csort", cluster, capture, manifest, config, plan, seed=seed,
        args={"n_nodes": n_nodes,
              "records_per_node": records_per_node,
              "seed": seed,
              "retry": to_doc(retry),
              "distribution": distribution,
              "out_block_records": out_block_records,
              "s_override": s_override,
              "verify": verify},
        seeds={"workload": seed},
        rank_times=[{"rank": r.rank, "pass1": r.pass1_time,
                     "pass2": r.pass2_time, "pass3": r.pass3_time}
                    for r in reports],
        verify=verify, trace=trace, trace_path=trace_path)
