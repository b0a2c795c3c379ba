"""Quota admission at its boundaries: the per-pass tenant tally against a
brute-force recount over the running jobs."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    Arrival,
    ArrivalTrace,
    JobSpec,
    Quota,
    Scheduler,
    get_kind,
    run_schedule,
)

N_NODES = 4
#: every demand and byte cap is a whole number of these, so running
#: demands often sum to exactly a tenant's cap
UNIT = 4096


def recount(sched, job):
    """The verdict from first principles: the tenant's running jobs,
    their nodes and their demand, recounted for this one job."""
    quota = sched.quotas[job.spec.tenant]
    mine = [j for j in sched._running.values()
            if j.spec.tenant == job.spec.tenant]

    def demand(j):
        return get_kind(j.spec.kind).demand(j.spec)

    return (len(mine) < quota.max_inflight
            and sum(j.spec.n_nodes for j in mine) + job.spec.n_nodes
            <= quota.max_nodes
            and sum(demand(j) for j in mine) + demand(job)
            <= quota.max_buffer_bytes)


@st.composite
def workloads(draw):
    """Two or three tenants with tight quotas, and up to ten ``blocks``
    jobs each of which passes admission on its own."""
    quotas = {tenant: Quota(max_nodes=draw(st.integers(1, N_NODES)),
                            max_inflight=draw(st.integers(1, 3)),
                            max_buffer_bytes=UNIT * draw(st.integers(1, 6)))
              for tenant in ("a", "b", "c")[:draw(st.integers(2, 3))]}
    arrivals = []
    for _ in range(draw(st.integers(1, 10))):
        tenant = draw(st.sampled_from(sorted(quotas)))
        units = quotas[tenant].max_buffer_bytes // UNIT
        n_nodes = draw(st.integers(
            1, min(quotas[tenant].max_nodes, N_NODES, units)))
        # blocks demands n_nodes * 2 * block_bytes bytes
        block_bytes = UNIT // 2 * draw(st.integers(1, units // n_nodes))
        arrivals.append(Arrival(
            draw(st.integers(0, 20)) * 0.002,
            JobSpec(tenant, "blocks", n_nodes,
                    params={"blocks": draw(st.integers(1, 4)),
                            "compute": 0.002, "block_bytes": block_bytes},
                    priority=draw(st.integers(0, 2)))))
    return ArrivalTrace(arrivals=tuple(arrivals)), quotas


@settings(max_examples=60, deadline=None)
@given(workload=workloads(),
       policy=st.sampled_from(["fifo", "fair", "priority"]))
def test_the_tally_verdict_is_the_recount(workload, policy):
    trace, quotas = workload
    verdicts = []
    tallied = Scheduler._quota_ok

    def checked(sched, job, usage):
        verdict = tallied(sched, job, usage)
        assert verdict == recount(sched, job), (job, sched._running)
        verdicts.append(verdict)
        return verdict

    with mock.patch.object(Scheduler, "_quota_ok", checked):
        report = run_schedule(trace, n_nodes=N_NODES, quotas=quotas,
                              policy=policy, provenance=False)
    assert report.done == len(trace)
    assert len(verdicts) >= len(trace)  # each job was checked at least once
