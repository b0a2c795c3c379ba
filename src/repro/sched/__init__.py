"""repro.sched: a multi-tenant scheduler over one shared simulated cluster.

The ROADMAP's north star promotes :mod:`repro.cluster` from a
single-program cluster into a shared, long-lived service: many tenants
submit FG jobs (dsort, csort, groupby, modeled block jobs) as an
unbounded arriving stream, and a scheduler decides admission, placement,
and preemption over the same nodes whose disk arms, NICs, and cores
already model contention.

Layers:

* :mod:`repro.sched.job` — :class:`JobSpec`/:class:`Job` lifecycle
  (QUEUED → ADMITTED → RUNNING → {DONE, FAILED, PREEMPTED → QUEUED})
  and per-tenant :class:`Quota`;
* :mod:`repro.sched.subcluster` — a rank- and tag-translating window
  onto the shared cluster, so unmodified SPMD mains run on a subset of
  nodes without seeing other tenants' traffic;
* :mod:`repro.sched.kinds` — the table of schedulable job kinds;
* :mod:`repro.sched.policy` — pluggable placement policies (FIFO,
  priority, weighted fair-share over virtual runtime);
* :mod:`repro.sched.scheduler` — the control-plane process: admission
  quotas, placement, preemption with checkpoint-aware resume, the
  cross-tenant speculation budget, ``sched.*`` metrics, and a
  deterministic decision log (mirrored as ``sched`` trace instants);
* :mod:`repro.sched.workload` — arrival traces (JSON round-trip) and a
  seeded synthetic generator;
* :mod:`repro.sched.harness` — :func:`run_schedule`, the one-call
  entry point that also captures a replayable provenance record.
"""

from repro.sched.harness import SchedReport, run_schedule
from repro.sched.job import Job, JobSpec, JobState, Quota
from repro.sched.kinds import JobKind, get_kind, kind_names
from repro.sched.policy import (
    FairSharePolicy,
    FifoPolicy,
    PlacementPolicy,
    PriorityPolicy,
    make_policy,
)
from repro.sched.scheduler import JobControl, Scheduler
from repro.sched.subcluster import JobNetwork, SubCluster
from repro.sched.workload import Arrival, ArrivalTrace, synthetic_trace

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "FairSharePolicy",
    "FifoPolicy",
    "Job",
    "JobControl",
    "JobKind",
    "JobNetwork",
    "JobSpec",
    "JobState",
    "PlacementPolicy",
    "PriorityPolicy",
    "Quota",
    "SchedReport",
    "Scheduler",
    "SubCluster",
    "get_kind",
    "kind_names",
    "make_policy",
    "run_schedule",
    "synthetic_trace",
]
