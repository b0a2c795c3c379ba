"""ProvenanceCapture: passive run-time collection of provenance inputs.

A capture object attaches to a kernel (``ProvenanceCapture(kernel)``
sets ``kernel.provenance``) before the run starts.  From then on every
:class:`~repro.core.program.FGProgram` that starts on that kernel —
regardless of which application assembled it — reports its stage-graph
fingerprint through the :class:`~repro.obs.observer.ProgramObserver`
event path, with zero per-app code.  The harness entry points
(:func:`repro.bench.harness.run_sort`,
:func:`repro.faults.chaos.run_chaos_dsort` / ``run_chaos_csort``,
:func:`repro.sched.harness.run_schedule`) get their cluster — and, for a
describable run, the capture attached to its kernel — from
:func:`observed_cluster`, and turn the finished run into a
:class:`~repro.prov.record.ProvenanceRecord` with
:meth:`ProvenanceCapture.record`.

The capture is deliberately **passive**: it records nothing into the
metrics registry and the trace, so a captured run's digests equal an
uncaptured run's — capturing provenance can never perturb the thing
being captured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.core.program import FGProgram
    from repro.plan.ir import ProgramGraph
    from repro.prov.record import DecisionLog, ProvenanceRecord
    from repro.sim.kernel import Kernel

__all__ = ["ProvenanceCapture", "observed_cluster"]


class ProvenanceCapture:
    """Collects stage-graph fingerprints from every program started on
    one kernel (pass restarts re-report the same fingerprints)."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: program name -> stage-graph fingerprint
        self.stage_graphs: dict[str, str] = {}
        #: total FGProgram.start() calls seen (restarts re-count)
        self.program_starts = 0
        kernel.provenance = self

    def on_program_start(self, program: "FGProgram",
                         graph: "ProgramGraph") -> None:
        """Called via ProgramObserver when a program assembles, with the
        graph ``start()`` built for the linter — the fingerprint is of
        exactly what was linted, and costs no second walk."""
        self.program_starts += 1
        self.stage_graphs[program.name] = graph.fingerprint()

    def record(self, kind: str, args: dict, seeds: dict, *,
               fault_plan: Optional[dict] = None,
               snapshot: Optional[dict] = None,
               logs: Sequence["DecisionLog"] = (),
               **digests: str) -> "ProvenanceRecord":
        """The finished run's :class:`ProvenanceRecord`.

        The harness passes what is its own — its ``kind``, its ``args``
        and ``seeds``, its serialized fault plan, the decision ``logs``
        of its scheduler or recovery manager, the digests only it can
        take (``output=``, ``decisions=``).  Everything a kernel can
        answer is filled in here: the stage graphs, the metrics and
        trace digests, and the source tree's identity.  ``snapshot`` is
        the metrics snapshot a harness has already taken for its own
        report, so that no run takes a second one.
        """
        # the digest helpers are looked up on the package at call time:
        # benchmarks/perf/traced.py times them by patching those names
        from repro import prov

        kernel = self.kernel
        if snapshot is None:
            snapshot = kernel.metrics.snapshot()
        return prov.ProvenanceRecord(
            kind=kind, args=args, seeds=seeds, fault_plan=fault_plan,
            decisions={log.source: list(log.entries) for log in logs
                       if log.entries},
            stage_graphs=dict(self.stage_graphs),
            digests={**digests,
                     "metrics": prov.metrics_digest(snapshot),
                     "trace": prov.trace_digest(kernel.tracer)},
            **prov.version_info())

    def detach(self) -> None:
        """Stop capturing on this kernel."""
        if self.kernel.provenance is self:
            self.kernel.provenance = None


def observed_cluster(n_nodes: int, *, trace: bool = True,
                     capture: bool = False, **cluster_args: Any
                     ) -> "tuple[Cluster, Optional[ProvenanceCapture]]":
    """A :class:`~repro.cluster.cluster.Cluster` on a fresh metered (and,
    unless ``trace=False``, traced) virtual-time kernel, plus the
    :class:`ProvenanceCapture` attached to that kernel when ``capture``
    is set — the one way an observed run starts.

    The order is the only legal one: ``enable_metrics()`` before anything
    is constructed on the kernel, because channels, disks and FG programs
    look the registry up when they are created.  The registry keeps
    sample series only on a traced run (``record_samples = trace``): the
    Chrome exporter and :mod:`repro.obs.timeseries`, their only readers,
    run only where the trace is kept.  ``cluster_args``
    (``hardware``, ``fault_plan``, ``retry_policy``,
    ``mailbox_capacity_bytes``) go to the cluster untouched; in
    particular a ``hardware`` of None stays None, so each caller keeps
    its own default platform.  Whether a run is describable enough to
    capture is the caller's rule, not decided here.
    """
    from repro.cluster.cluster import Cluster
    from repro.sim.trace import Tracer
    from repro.sim.virtual import VirtualTimeKernel

    kernel = VirtualTimeKernel(tracer=Tracer() if trace else None)
    kernel.enable_metrics().record_samples = trace
    attached = ProvenanceCapture(kernel) if capture else None
    return Cluster(n_nodes=n_nodes, kernel=kernel, **cluster_args), attached
