"""The multi-tenant control plane: admission, placement, preemption.

The :class:`Scheduler` is one long-lived kernel process plus the
bookkeeping around it.  Tenants :meth:`~Scheduler.submit` jobs at any
time (before the kernel runs or from inside it); the control loop wakes
on every submit and every job exit, re-orders the queue with the
configured :class:`~repro.sched.policy.PlacementPolicy`, and starts
whatever the tenant quotas and free nodes allow.

Design points that the tests pin down:

* **Exclusive, sticky placement** — a node runs one job at a time, and
  a re-queued (preempted) job is only ever re-placed on its *original*
  nodes: its input files, journals, and partial output live on those
  disks, which is precisely what makes checkpoint-aware resume work.
* **Cooperative preemption** — the scheduler never kills a process (a
  mid-collective kill would strand peer ranks in the mailboxes).  It
  sets a flag on the job's :class:`JobControl`; the job observes it at
  its next safe point and raises :class:`~repro.errors.JobPreempted`,
  which every rank's wrapper catches.  Collective programs use
  :meth:`JobControl.sched_point`, which *latches* the verdict per
  (attempt, phase) so all ranks take the same branch — an
  SPMD-inconsistent preempt would deadlock the next barrier.
* **Nothing escapes to the kernel** — rank wrappers catch
  ``BaseException``: a raw process failure would abort the whole
  virtual-time kernel, i.e. every other tenant's run.
* **Determinism** — every choice is appended to an ordered
  :class:`~repro.prov.record.DecisionLog`.  Identical seed + arrival
  trace ⇒ byte-identical ``decisions.text()``, which provenance replay
  verifies by digest and entry by entry.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Union

from repro.errors import (
    AdmissionError,
    JobPreempted,
    KernelShutdown,
    SchedError,
)
from repro.prov.record import DecisionLog
from repro.sched.job import Job, JobSpec, JobState, Quota
from repro.sched.kinds import JobKind, get_kind
from repro.sched.policy import PlacementPolicy, make_policy
from repro.sched.subcluster import SubCluster
from repro.sim.channel import Channel
from repro.sim.trace import SCHED

__all__ = ["JobControl", "Scheduler"]

#: tag-window stride between jobs; comfortably above every user tag in
#: the repo (dsort 40s, groupby 51) plus the reserved collective pad
DEFAULT_TAG_STRIDE = 1024

#: a tenant's (running jobs, nodes, buffer bytes) with nothing running
_IDLE = (0, 0, 0)

#: preemptions of one job at one simulated instant after which the
#: schedule is a livelock (see ``Scheduler._check_churn``)
PREEMPT_LIVELOCK = 100

_LATENCY_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


class JobControl:
    """The per-job handle the scheduler shares with the job's ranks."""

    def __init__(self, scheduler: "Scheduler", job: Job):
        self._scheduler = scheduler
        self.job = job
        #: live preempt flag, set by the scheduler
        self.preempt_requested = False
        self.preempt_reason = ""
        #: latched sched-point verdicts, keyed by (attempt, phase)
        self._latched: dict[tuple[int, str], bool] = {}

    # -- called by job ranks -------------------------------------------------

    def should_preempt(self) -> bool:
        """Raw flag check, for communication-free runners.

        Ranks may observe the request at different points; each stops
        independently, which is safe only because they never meet in a
        collective.
        """
        return self.preempt_requested

    def sched_point(self, phase: str) -> None:
        """Collective-safe preemption point.

        The first rank to reach ``phase`` this attempt latches the live
        flag; every other rank reuses the latched verdict, so either all
        ranks raise :class:`JobPreempted` here or none do.
        """
        key = (self.job.attempts, phase)
        verdict = self._latched.get(key)
        if verdict is None:
            verdict = self.preempt_requested
            self._latched[key] = verdict
        if verdict:
            raise JobPreempted(
                f"job {self.job.id} preempted at {phase!r}: "
                f"{self.preempt_reason or 'scheduler request'}")

    def grant_speculation(self) -> bool:
        """Ask for one slot of the cross-tenant speculation budget."""
        return self._scheduler._grant_speculation(self.job)

    # -- called by the scheduler ---------------------------------------------

    def reset_for_attempt(self) -> None:
        self.preempt_requested = False
        self.preempt_reason = ""


class Scheduler:
    """Admission, placement, and preemption over one shared cluster."""

    def __init__(self, cluster: Any, quotas: Mapping[str, Quota],
                 policy: Union[PlacementPolicy, str, None] = None, *,
                 preempt: bool = False, speculation_slots: int = 0,
                 tag_stride: int = DEFAULT_TAG_STRIDE, seed: int = 0):
        if not quotas:
            raise SchedError("scheduler needs at least one tenant quota")
        if speculation_slots < 0:
            raise SchedError(
                f"speculation_slots must be >= 0, got {speculation_slots}")
        if tag_stride < 64:
            raise SchedError(
                f"tag_stride must be >= 64 to clear the collective pad "
                f"and user tags, got {tag_stride}")
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.quotas: dict[str, Quota] = dict(quotas)
        if policy is None:
            policy = "fifo"
        self.policy: PlacementPolicy = (
            make_policy(policy) if isinstance(policy, str) else policy)
        self.preempt_enabled = preempt
        self.speculation_slots = speculation_slots
        self.tag_stride = tag_stride
        self.seed = seed

        self.jobs: dict[int, Job] = {}
        #: each job's buffer demand in bytes, computed once at submit
        self._demand: dict[int, int] = {}
        self._next_id = 0
        self._queued: list[Job] = []
        self._running: dict[int, Job] = {}
        self._controls: dict[int, JobControl] = {}
        self._free: set[int] = set(range(cluster.n_nodes))
        self._wakeup: Channel = Channel(self.kernel, name="sched.wakeup")
        self._closing = False
        self._spec_used = 0
        self._spec_holders: set[int] = set()
        #: job id -> (instant of its last preemption, preemptions then)
        self._preempted_at: dict[int, tuple[float, int]] = {}

        #: accrued virtual runtime (weighted node-seconds) per tenant
        self._vruntime: dict[str, float] = {t: 0.0 for t in self.quotas}
        #: unweighted busy node-seconds, for utilization reporting
        self.busy_node_seconds = 0.0

        #: the ordered, deterministic decision log
        self.decisions = DecisionLog(self.kernel, SCHED, "scheduler")

        registry = self.kernel.metrics
        if registry is not None:
            self._m_submitted = registry.counter("sched.jobs.submitted")
            self._m_started = registry.counter("sched.attempts.started")
            self._m_done = registry.counter("sched.jobs.done")
            self._m_failed = registry.counter("sched.jobs.failed")
            self._m_preempted = registry.counter("sched.jobs.preempted")
            self._m_queue = registry.gauge("sched.queue.depth",
                                           record_samples=True)
            self._m_free = registry.gauge("sched.nodes.free",
                                          record_samples=True)
            self._m_latency = registry.histogram(
                "sched.job.latency", unit="s", bounds=_LATENCY_BOUNDS)
            self._m_spec_grant = registry.counter(
                "sched.speculation.granted")
            self._m_spec_deny = registry.counter("sched.speculation.denied")
        else:
            self._m_submitted = self._m_started = None
            self._m_done = self._m_failed = self._m_preempted = None
            self._m_queue = self._m_free = self._m_latency = None
            self._m_spec_grant = self._m_spec_deny = None

    # -- public API ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the control-loop process (call once, before kernel.run)."""
        self.kernel.spawn(self._control_loop, name="scheduler")

    def submit(self, spec: JobSpec) -> Job:
        """Admit a spec into the queue, or refuse it outright.

        Admission control rejects specs that could *never* run under
        their tenant's quota or on this cluster; specs that merely have
        to wait are queued.
        """
        quota = self.quotas.get(spec.tenant)
        if quota is None:
            raise AdmissionError(
                f"unknown tenant {spec.tenant!r}; known: "
                f"{', '.join(sorted(self.quotas))}")
        try:
            kind = get_kind(spec.kind)
        except SchedError as exc:
            raise AdmissionError(str(exc)) from None
        if spec.n_nodes > self.cluster.n_nodes:
            raise AdmissionError(
                f"job wants {spec.n_nodes} nodes but the cluster has "
                f"{self.cluster.n_nodes}")
        if spec.n_nodes > quota.max_nodes:
            raise AdmissionError(
                f"job wants {spec.n_nodes} nodes but tenant "
                f"{spec.tenant!r} is capped at {quota.max_nodes}")
        demand = int(kind.demand(spec))
        if demand > quota.max_buffer_bytes:
            raise AdmissionError(
                f"job demands {demand} buffer bytes but tenant "
                f"{spec.tenant!r} is capped at {quota.max_buffer_bytes}")

        job = Job(id=self._next_id, spec=spec,
                  submit_time=self.kernel.now())
        self._next_id += 1
        self._demand[job.id] = demand
        self.jobs[job.id] = job
        self._queued.append(job)
        if self._m_submitted is not None:
            self._m_submitted.inc()
        self._decide("submit", job,
                     f"kind={spec.kind} n={spec.n_nodes} "
                     f"prio={spec.priority} demand={demand}")
        self._wakeup.put(("wake",))
        return job

    def close(self) -> None:
        """Stop accepting work; the loop exits once the queue drains."""
        self._wakeup.put(("close",))

    def preempt(self, job_id: int, reason: str = "operator request") -> bool:
        """Ask a running job to stop at its next safe point."""
        job = self._running.get(job_id)
        if job is None:
            return False
        return self._request_preempt(job, reason)

    def effective_vruntime(self, tenant: str) -> float:
        """Accrued virtual runtime plus in-flight charges, for fair share."""
        now = self.kernel.now()
        total = self._vruntime[tenant]
        weight = self.quotas[tenant].weight
        for job in self._running.values():
            if job.spec.tenant == tenant:
                total += (now - job.start_time) * job.spec.n_nodes / weight
        return total

    # -- decision log --------------------------------------------------------

    def _decide(self, kind: str, job: Optional[Job] = None,
                detail: str = "") -> None:
        self.decisions.append({
            "seq": len(self.decisions.entries),
            "time": round(self.kernel.now(), 9),
            "kind": kind,
            "job": None if job is None else job.id,
            "tenant": None if job is None else job.spec.tenant,
            "detail": detail,
        })

    # -- control loop --------------------------------------------------------

    def _control_loop(self) -> None:
        self._decide("start", detail=(
            f"policy={self.policy.name} nodes={self.cluster.n_nodes} "
            f"preempt={self.preempt_enabled} "
            f"speculation_slots={self.speculation_slots}"))
        self._schedule()
        while True:
            msg = self._wakeup.get()
            if msg[0] == "close":
                self._closing = True
            elif msg[0] == "job-exit":
                self._on_exit(msg[1], msg[2])
            self._schedule()
            if self._closing and not self._queued and not self._running:
                break
        done = sum(1 for j in self.jobs.values()
                   if j.state is JobState.DONE)
        failed = sum(1 for j in self.jobs.values()
                     if j.state is JobState.FAILED)
        self._decide("stop", detail=f"done={done} failed={failed} "
                                    f"jobs={len(self.jobs)}")

    def _schedule(self) -> None:
        """Place every queued job the policy order and resources allow."""
        progressed = True
        while progressed:
            progressed = False
            # nothing below changes _running until the break, so one
            # tally per pass answers every queued job's quota check
            usage = self._tenant_usage()
            for job in self.policy.order(self._queued, self):
                if not self._quota_ok(job, usage):
                    continue
                if self._placeable(job):
                    self._start(job)
                    progressed = True
                    break  # state changed; re-order the queue
                if self.preempt_enabled:
                    self._consider_preemption(job)
        if self._m_queue is not None:
            self._m_queue.set(len(self._queued))
        if self._m_free is not None:
            self._m_free.set(len(self._free))

    def _placeable(self, job: Job) -> bool:
        if job.alloc is not None:
            # sticky re-placement: the job's data lives on these disks
            return set(job.alloc) <= self._free
        return len(self._free) >= job.spec.n_nodes

    def _tenant_usage(self) -> dict[str, tuple[int, int, int]]:
        """Each tenant's running jobs, nodes and buffer bytes; a tenant
        with nothing running is absent."""
        usage: dict[str, tuple[int, int, int]] = {}
        for job in self._running.values():
            jobs, nodes, nbytes = usage.get(job.spec.tenant, _IDLE)
            usage[job.spec.tenant] = (jobs + 1, nodes + job.spec.n_nodes,
                                      nbytes + self._demand[job.id])
        return usage

    def _quota_ok(self, job: Job,
                  usage: Mapping[str, tuple[int, int, int]]) -> bool:
        quota = self.quotas[job.spec.tenant]
        jobs, nodes, nbytes = usage.get(job.spec.tenant, _IDLE)
        return (jobs < quota.max_inflight
                and nodes + job.spec.n_nodes <= quota.max_nodes
                and nbytes + self._demand[job.id] <= quota.max_buffer_bytes)

    def _start(self, job: Job) -> None:
        if job.alloc is None:
            job.alloc = sorted(self._free)[:job.spec.n_nodes]
        self._free.difference_update(job.alloc)
        self._queued.remove(job)
        job.state = JobState.ADMITTED
        self._decide("admit", job)
        job.attempts += 1
        job.start_time = self.kernel.now()

        tag_base = self.tag_stride * (job.id + 1)
        sub = SubCluster(self.cluster, job.alloc, tag_base)
        ctl = self._controls.get(job.id)
        if ctl is None:
            ctl = JobControl(self, job)
            self._controls[job.id] = ctl
        ctl.reset_for_attempt()

        kind = get_kind(job.spec.kind)
        if job.attempts == 1 and kind.prepare is not None:
            kind.prepare(sub, job, self.seed)
        shared = kind.setup(sub, job, ctl) if kind.setup else None

        job.state = JobState.RUNNING
        self._running[job.id] = job
        self._decide("place", job,
                     f"attempt={job.attempts} nodes={job.alloc} "
                     f"tag_base={tag_base}")
        if self._m_started is not None:
            self._m_started.inc()

        statuses: list[Any] = [None] * job.spec.n_nodes
        procs = sub.spawn_spmd(
            self._rank_main, job, ctl, kind, shared, statuses,
            name=f"{job.prefix}.a{job.attempts}")
        self.kernel.spawn(self._wait_job, job, procs, statuses,
                          name=f"sched.wait.{job.prefix}.a{job.attempts}")

    @staticmethod
    def _rank_main(node: Any, comm: Any, job: Job, ctl: JobControl,
                   kind: JobKind, shared: Any,
                   statuses: list[Any]) -> None:
        try:
            result = kind.runner(node, comm, job, ctl, shared)
        except JobPreempted as exc:
            statuses[comm.rank] = ("preempted", str(exc))
        except BaseException as exc:  # noqa: BLE001 - must not hit kernel
            statuses[comm.rank] = ("fail",
                                   f"{type(exc).__name__}: {exc}")
        else:
            statuses[comm.rank] = ("ok", result)

    def _wait_job(self, job: Job, procs: Sequence[Any],
                  statuses: list[Any]) -> None:
        for proc in procs:
            try:
                proc.join()
            except KernelShutdown:
                raise  # the kernel is aborting: join nothing more
            except Exception as exc:  # pragma: no cover - wrapper caught it
                statuses[0] = ("fail", f"{type(exc).__name__}: {exc}")
        self._wakeup.put(("job-exit", job.id, statuses))

    def _on_exit(self, job_id: int, statuses: list[Any]) -> None:
        job = self._running.pop(job_id)
        now = self.kernel.now()
        self._free.update(job.alloc or ())
        elapsed = now - job.start_time
        tenant = job.spec.tenant
        self._vruntime[tenant] += (elapsed * job.spec.n_nodes
                                   / self.quotas[tenant].weight)
        self.busy_node_seconds += elapsed * job.spec.n_nodes
        if job.id in self._spec_holders:
            self._spec_holders.discard(job.id)
            self._spec_used -= 1

        statuses = [("fail", "rank never reported") if s is None else s
                    for s in statuses]
        failures = [s[1] for s in statuses if s[0] == "fail"]
        preempted = any(s[0] == "preempted" for s in statuses)
        if failures:
            job.state = JobState.FAILED
            job.end_time = now
            job.error = str(failures[0])
            self._decide("finish", job, f"failed: {job.error}")
            if self._m_failed is not None:
                self._m_failed.inc()
        elif preempted:
            self._check_churn(job, now)
            job.state = JobState.PREEMPTED
            job.preemptions += 1
            self._decide("preempt-stop", job,
                         f"attempt={job.attempts} requeued")
            if self._m_preempted is not None:
                self._m_preempted.inc()
            job.state = JobState.QUEUED
            self._queued.append(job)
        else:
            job.state = JobState.DONE
            job.end_time = now
            job.result = [s[1] for s in statuses]
            self._decide("finish", job,
                         f"ok attempts={job.attempts} "
                         f"latency={round(job.latency, 9)}")
            if self._m_done is not None:
                self._m_done.inc()
            if self._m_latency is not None:
                self._m_latency.observe(job.latency)

    # -- preemption ----------------------------------------------------------

    def _request_preempt(self, job: Job, reason: str) -> bool:
        ctl = self._controls.get(job.id)
        if ctl is None or ctl.preempt_requested:
            return False
        ctl.preempt_requested = True
        ctl.preempt_reason = reason
        self._decide("preempt-request", job, reason)
        return True

    def _consider_preemption(self, job: Job) -> None:
        """Evict strictly-lower-priority work to place ``job``.

        Greedy: victims in ascending priority (youngest first within a
        level) until their nodes plus the free pool would cover the
        job.  Requests are cooperative, so the nodes arrive later —
        placement happens on a future ``job-exit`` wakeup.
        """
        needed = (len(job.alloc) if job.alloc is not None
                  else job.spec.n_nodes)
        victims = sorted(
            (j for j in self._running.values()
             if j.spec.priority < job.spec.priority),
            key=lambda j: (j.spec.priority, -j.id))
        would_free = len(self._free)
        for victim in victims:
            if would_free >= needed:
                break
            ctl = self._controls.get(victim.id)
            if ctl is not None and ctl.preempt_requested:
                would_free += victim.spec.n_nodes
                continue
            if self._request_preempt(
                    victim,
                    f"make room for job {job.id} "
                    f"(priority {job.spec.priority} > "
                    f"{victim.spec.priority})"):
                would_free += victim.spec.n_nodes

    def _check_churn(self, job: Job, now: float) -> None:
        """Refuse a job preempted too often at one instant: re-placed on
        the nodes it freed and evicted again, it never lets the clock
        move, and no kernel guard sees a loop of channel wake-ups."""
        at, count = self._preempted_at.get(job.id, (now, 0))
        count = count + 1 if at == now else 1
        self._preempted_at[job.id] = (now, count)
        if count > PREEMPT_LIVELOCK:
            raise SchedError(
                f"livelock: job {job.id} was placed and preempted "
                f"{count} times at t={now!r} "
                f"({self._controls[job.id].preempt_reason})")

    def _grant_speculation(self, job: Job) -> bool:
        if self._spec_used < self.speculation_slots:
            self._spec_used += 1
            self._spec_holders.add(job.id)
            self._decide("speculate-grant", job,
                         f"slot {self._spec_used}/{self.speculation_slots}")
            if self._m_spec_grant is not None:
                self._m_spec_grant.inc()
            return True
        self._decide("speculate-deny", job,
                     f"budget exhausted ({self.speculation_slots} slots)")
        if self._m_spec_deny is not None:
            self._m_spec_deny.inc()
        return False
