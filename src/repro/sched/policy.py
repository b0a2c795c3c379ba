"""Pluggable placement policies: who runs next on the shared cluster.

A policy orders the queued jobs; the scheduler then walks that order,
admitting and placing each job the cluster and its tenant's quota can
take.  Ordering is the whole interface — placement itself (which
physical nodes) is deterministic (lowest-numbered free nodes), so two
runs with the same policy, seed, and arrival trace produce byte-identical
decision logs.

* :class:`FifoPolicy` — strict submission order, the baseline every
  other policy is benchmarked against;
* :class:`PriorityPolicy` — higher ``spec.priority`` first, FIFO within
  a priority level; pairs with priority preemption;
* :class:`FairSharePolicy` — weighted fair share over *virtual
  runtime*: each tenant accrues ``node_seconds / weight`` as its jobs
  run, and the tenant with the smallest accrued share goes first.  A
  tenant that floods the queue cannot starve a light tenant: the light
  tenant's vruntime stays small, so its occasional jobs jump the flood.

All tie-breaks end on ``job.id`` (submission order), never on dict or
set iteration order — determinism is an acceptance criterion, not a
nice-to-have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import SchedError
from repro.sched.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.scheduler import Scheduler

__all__ = ["FairSharePolicy", "FifoPolicy", "PlacementPolicy",
           "PriorityPolicy", "make_policy"]


class PlacementPolicy:
    """Orders the queue; subclasses override :meth:`order`."""

    name = "policy"

    def order(self, queued: Sequence[Job],
              sched: "Scheduler") -> list[Job]:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class FifoPolicy(PlacementPolicy):
    """First submitted, first placed."""

    name = "fifo"

    def order(self, queued: Sequence[Job], sched: "Scheduler") -> list[Job]:
        return sorted(queued, key=lambda job: job.id)


class PriorityPolicy(PlacementPolicy):
    """Highest ``spec.priority`` first; FIFO within a level."""

    name = "priority"

    def order(self, queued: Sequence[Job], sched: "Scheduler") -> list[Job]:
        return sorted(queued, key=lambda job: (-job.spec.priority, job.id))


class FairSharePolicy(PlacementPolicy):
    """Weighted fair share over accrued virtual runtime.

    The tenant whose jobs have consumed the least weighted node-time —
    including charges still accruing for jobs running right now — gets
    the head of the line.  Within a tenant, FIFO.
    """

    name = "fair"

    def order(self, queued: Sequence[Job], sched: "Scheduler") -> list[Job]:
        # one instant, no mutation between reads: each tenant's charge
        # is computed once per call, not once per queued job
        vruntime: dict[str, float] = {}
        for job in queued:
            tenant = job.spec.tenant
            if tenant not in vruntime:
                vruntime[tenant] = sched.effective_vruntime(tenant)
        return sorted(queued, key=lambda job: (
            vruntime[job.spec.tenant], job.id))


_POLICIES = {
    FifoPolicy.name: FifoPolicy,
    PriorityPolicy.name: PriorityPolicy,
    FairSharePolicy.name: FairSharePolicy,
}


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a policy by CLI/benchmark name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise SchedError(
            f"unknown policy {name!r}; choose from "
            f"{', '.join(sorted(_POLICIES))}") from None
