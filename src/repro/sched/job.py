"""Job lifecycle records and per-tenant quotas.

A :class:`JobSpec` is the immutable submission (who wants what run
where); a :class:`Job` is the scheduler's mutable bookkeeping around it
(state machine, timestamps, attempts, allocation, result).  A
:class:`Quota` bounds one tenant's concurrent footprint on the shared
cluster; admission checks it, nothing else does.

State machine::

    QUEUED -> ADMITTED -> RUNNING -> DONE
                             |  \\-> FAILED
                             \\---> PREEMPTED -> QUEUED (re-queued,
                                                 progress retained)

ADMITTED is a transit state: a job passes quota (admit decision) and is
placed (place decision) in the same scheduling step when nodes are free,
so observers usually see QUEUED -> RUNNING with both decisions logged.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Optional

from repro.errors import SchedError
from repro.jsondoc import Document

__all__ = ["Job", "JobSpec", "JobState", "Quota"]


class JobState(enum.Enum):
    """Lifecycle states of a scheduled job."""

    QUEUED = "queued"        #: submitted, waiting for quota and nodes
    ADMITTED = "admitted"    #: passed admission, awaiting placement
    RUNNING = "running"      #: SPMD processes live on allocated nodes
    PREEMPTED = "preempted"  #: stopped at a safe point, about to re-queue
    DONE = "done"            #: all ranks returned normally
    FAILED = "failed"        #: a rank reported an error

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclasses.dataclass(frozen=True)
class Quota(Document):
    """One tenant's concurrent-footprint bounds (checked at admission).

    ``weight`` is not a bound: it is the tenant's fair-share weight — a
    tenant with weight 2 accrues virtual runtime at half the rate per
    node-second, so the fair-share policy schedules it twice as often.
    """

    _doc_error = SchedError

    #: max nodes allocated to the tenant's running jobs at once
    max_nodes: int = 4
    #: max jobs admitted-or-running at once
    max_inflight: int = 4
    #: max summed memory-buffer demand of running jobs (bytes)
    max_buffer_bytes: int = 64 * 1024 * 1024
    #: fair-share weight (larger = larger share)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise SchedError("quota max_nodes must be >= 1")
        if self.max_inflight < 1:
            raise SchedError("quota max_inflight must be >= 1")
        if self.max_buffer_bytes < 1:
            raise SchedError("quota max_buffer_bytes must be >= 1")
        if self.weight <= 0:
            raise SchedError("quota weight must be > 0")


@dataclasses.dataclass(frozen=True)
class JobSpec(Document):
    """An immutable job submission.

    ``params`` is kind-specific configuration (record counts, block
    sizes, seeds, ...) interpreted by the kind's runner; it must stay
    JSON-able because specs ride along in arrival traces and provenance
    records.
    """

    _doc_error = SchedError

    tenant: str
    kind: str
    n_nodes: int = 1
    params: dict = dataclasses.field(default_factory=dict)
    #: larger = more urgent (the priority policy sorts on it, and
    #: priority preemption only ever evicts strictly lower priorities)
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.tenant:
            raise SchedError("job spec needs a tenant name")
        if not self.kind:
            raise SchedError("job spec needs a kind name")
        if self.n_nodes < 1:
            raise SchedError("job spec n_nodes must be >= 1")


@dataclasses.dataclass
class Job:
    """The scheduler's mutable record of one submitted job."""

    id: int
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submit_time: float = 0.0
    start_time: float = 0.0      #: start of the *current/last* attempt
    end_time: float = 0.0        #: set when the job reaches DONE/FAILED
    attempts: int = 0            #: placement attempts (1 on a clean run)
    preemptions: int = 0
    #: physical node ranks of the current/last allocation
    alloc: Optional[list[int]] = None
    #: per-rank results of the final successful attempt
    result: Optional[list[Any]] = None
    error: Optional[str] = None
    #: scratch shared across attempts (runners record progress counters
    #: here; durable resume state itself lives in on-disk journals)
    progress: dict = dataclasses.field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Submit-to-completion latency (valid once terminal)."""
        return self.end_time - self.submit_time

    @property
    def prefix(self) -> str:
        """Per-job namespace prefix for files, programs, and metrics."""
        return f"j{self.id}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Job {self.id} {self.spec.tenant}/{self.spec.kind} "
                f"n={self.spec.n_nodes} {self.state.value}>")
