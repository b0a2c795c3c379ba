"""Scheduler behavior: admission, quotas, policies, preemption."""

import threading
import time

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import (
    AdmissionError,
    KernelShutdown,
    ProcessFailed,
    SchedError,
)
from repro.prov.fingerprint import canonical_json
from repro.sched import (
    Arrival,
    ArrivalTrace,
    JobSpec,
    JobState,
    Quota,
    Scheduler,
    run_schedule,
)
from repro.sched.scheduler import PREEMPT_LIVELOCK
from repro.sim.trace import SCHED, Tracer
from repro.sim.virtual import VirtualTimeKernel


def make_sched(n_nodes=4, quotas=None, policy="fifo", **kwargs):
    kernel = VirtualTimeKernel(tracer=Tracer())
    cluster = Cluster(n_nodes=n_nodes, kernel=kernel)
    sched = Scheduler(cluster, quotas or {"t": Quota()}, policy, **kwargs)
    sched.start()
    return kernel, sched


def blocks(tenant="t", n_nodes=1, blocks=2, priority=0, **params):
    return JobSpec(tenant=tenant, kind="blocks", n_nodes=n_nodes,
                   priority=priority,
                   params={"blocks": blocks, "compute": 0.005, **params})


def run_all(kernel, sched, specs, schedule_extra=None):
    jobs = [sched.submit(spec) for spec in specs]
    if schedule_extra is not None:
        kernel.spawn(schedule_extra, name="extra")
    else:
        sched.close()
    kernel.run()
    return jobs


# -- admission ---------------------------------------------------------------


def test_unknown_tenant_rejected():
    _, sched = make_sched()
    with pytest.raises(AdmissionError, match="unknown tenant"):
        sched.submit(blocks(tenant="nobody"))


def test_unknown_kind_rejected():
    _, sched = make_sched()
    with pytest.raises(AdmissionError, match="unknown job kind"):
        sched.submit(JobSpec(tenant="t", kind="mystery"))


def test_impossible_node_demands_rejected():
    _, sched = make_sched(n_nodes=2,
                          quotas={"t": Quota(max_nodes=2)})
    with pytest.raises(AdmissionError, match="cluster has"):
        sched.submit(blocks(n_nodes=3))
    _, sched = make_sched(n_nodes=4, quotas={"t": Quota(max_nodes=2)})
    with pytest.raises(AdmissionError, match="capped at 2"):
        sched.submit(blocks(n_nodes=3))


def test_impossible_buffer_demand_rejected():
    _, sched = make_sched(
        quotas={"t": Quota(max_buffer_bytes=1024)})
    with pytest.raises(AdmissionError, match="buffer bytes"):
        sched.submit(blocks(block_bytes=1 << 20))


# -- lifecycle ---------------------------------------------------------------


def test_fifo_lifecycle_runs_everything():
    kernel, sched = make_sched()
    jobs = run_all(kernel, sched, [blocks() for _ in range(6)])
    assert all(j.state is JobState.DONE for j in jobs)
    assert all(j.attempts == 1 for j in jobs)
    kinds = [d["kind"] for d in sched.decisions.entries]
    # pre-run submits precede the control loop's own start record
    assert "start" in kinds and kinds[-1] == "stop"
    assert kinds.count("finish") == 6


def test_failed_job_reports_error_and_releases_nodes():
    kernel, sched = make_sched(n_nodes=2)
    bad = JobSpec(tenant="t", kind="dsort", n_nodes=1,
                  params={"records_per_node": 64, "block_records": -5})
    jobs = run_all(kernel, sched, [bad, blocks()])
    assert jobs[0].state is JobState.FAILED
    assert jobs[0].error  # the rank's exception text survives
    assert jobs[1].state is JobState.DONE  # cluster still healthy


# -- quotas ------------------------------------------------------------------


def test_tenant_at_exact_node_quota_boundary():
    """max_nodes=2 on a 4-node cluster: two 1-node jobs run together,
    the third waits even though free nodes exist."""
    kernel, sched = make_sched(
        n_nodes=4, quotas={"t": Quota(max_nodes=2, max_inflight=8)})
    concurrency = []

    spec = blocks(blocks=4)
    jobs = [sched.submit(spec) for _ in range(4)]

    def watcher():
        while any(not j.state.terminal for j in jobs):
            running = sum(1 for j in jobs
                          if j.state is JobState.RUNNING)
            concurrency.append(running)
            kernel.sleep(0.003)
        sched.close()

    kernel.spawn(watcher, name="watch")
    kernel.run()
    assert all(j.state is JobState.DONE for j in jobs)
    assert max(concurrency) == 2  # exactly at the cap, never above


def test_inflight_quota_is_exact():
    kernel, sched = make_sched(
        n_nodes=4, quotas={"t": Quota(max_nodes=4, max_inflight=1)})
    jobs = [sched.submit(blocks(blocks=3)) for _ in range(3)]
    peak = []

    def watcher():
        while any(not j.state.terminal for j in jobs):
            peak.append(sum(1 for j in jobs
                            if j.state is JobState.RUNNING))
            kernel.sleep(0.003)
        sched.close()

    kernel.spawn(watcher, name="watch")
    kernel.run()
    assert max(peak) == 1


def test_exact_buffer_quota_admits():
    """A job demanding exactly the remaining buffer budget is admitted."""
    from repro.sched import get_kind

    spec = blocks()
    demand = get_kind("blocks").demand(spec)
    kernel, sched = make_sched(
        quotas={"t": Quota(max_buffer_bytes=demand)})
    jobs = run_all(kernel, sched, [spec])
    assert jobs[0].state is JobState.DONE


def test_quota_isolates_tenants():
    """One tenant exhausting its quota cannot block the other."""
    kernel, sched = make_sched(
        n_nodes=4,
        quotas={"big": Quota(max_nodes=2, max_inflight=2),
                "small": Quota(max_nodes=2)})
    specs = [blocks(tenant="big", blocks=6) for _ in range(6)]
    specs.append(blocks(tenant="small"))
    jobs = run_all(kernel, sched, specs)
    assert all(j.state is JobState.DONE for j in jobs)
    small = jobs[-1]
    # small's single job ran long before big's backlog drained
    assert small.end_time < max(j.end_time for j in jobs[:6])


# -- policies ----------------------------------------------------------------


def test_priority_policy_orders_queue():
    kernel, sched = make_sched(n_nodes=1, policy="priority")
    low = [sched.submit(blocks(priority=0)) for _ in range(2)]
    high = sched.submit(blocks(priority=9))
    sched.close()
    kernel.run()
    # the high-priority job jumped every queued low-priority job except
    # the one already running when it arrived
    assert high.end_time < low[1].end_time


def test_fair_share_weights_bias_placement():
    kernel, sched = make_sched(
        n_nodes=1, policy="fair",
        quotas={"heavy": Quota(weight=1.0), "light": Quota(weight=1.0)})
    heavy = [sched.submit(blocks(tenant="heavy", blocks=4))
             for _ in range(6)]
    light = sched.submit(blocks(tenant="light"))
    sched.close()
    kernel.run()
    # light's only job must not wait behind heavy's whole backlog
    assert light.end_time < heavy[-1].end_time


def test_decision_log_is_the_entries_and_the_trace_instants():
    kernel, sched = make_sched(
        n_nodes=2, policy="fair",
        quotas={"a": Quota(weight=1.0), "b": Quota(weight=2.0)})
    run_all(kernel, sched, [blocks(tenant=t, blocks=3) for t in "abbab"])
    lines = sched.decisions.text().splitlines()
    assert lines == [canonical_json(entry)
                     for entry in sched.decisions.entries]
    assert lines == [ev.detail for ev in kernel.tracer.events
                     if ev.kind == SCHED]


# -- preemption --------------------------------------------------------------


def test_preempting_the_only_running_job():
    kernel, sched = make_sched(n_nodes=2, policy="priority",
                               preempt=True)
    low = sched.submit(blocks(n_nodes=2, blocks=40, priority=0))

    def later():
        kernel.sleep(0.03)
        sched.submit(blocks(n_nodes=2, blocks=2, priority=5))
        sched.close()

    kernel.spawn(later, name="later")
    kernel.run()
    assert low.state is JobState.DONE
    assert low.preemptions == 1 and low.attempts == 2
    kinds = [d["kind"] for d in sched.decisions.entries]
    assert "preempt-request" in kinds and "preempt-stop" in kinds


def test_twice_preempted_job_resumes_from_durable_blocks():
    """Preempt the same job twice; every attempt resumes exactly past
    the blocks already journaled, and the scenario is deterministic."""

    def scenario():
        kernel, sched = make_sched(n_nodes=1, policy="priority",
                                   preempt=True)
        victim = sched.submit(blocks(blocks=30, priority=0))

        def meddler():
            for _ in range(2):
                kernel.sleep(0.04)
                sched.submit(blocks(blocks=2, priority=5))
            sched.close()

        kernel.spawn(meddler, name="meddler")
        kernel.run()
        return victim, sched

    victim, sched = scenario()
    assert victim.state is JobState.DONE
    assert victim.preemptions == 2 and victim.attempts == 3
    worked = [victim.progress[f"worked.r0.a{a}"] for a in (1, 2, 3)]
    # no durable block was ever redone: the attempts partition the work
    assert sum(worked) == 30
    assert all(w > 0 for w in worked)

    victim2, sched2 = scenario()
    assert [victim2.progress[f"worked.r0.a{a}"] for a in (1, 2, 3)] \
        == worked
    assert sched2.decisions.digest() == sched.decisions.digest()


def test_sticky_replacement_reuses_original_nodes():
    kernel, sched = make_sched(n_nodes=3, policy="priority",
                               preempt=True)
    victim = sched.submit(blocks(n_nodes=2, blocks=40, priority=0))

    def later():
        kernel.sleep(0.03)
        sched.submit(blocks(n_nodes=2, blocks=2, priority=5))
        sched.close()

    kernel.spawn(later, name="later")
    kernel.run()
    assert victim.state is JobState.DONE
    places = [d for d in sched.decisions.entries
              if d["kind"] == "place" and d["job"] == victim.id]
    assert len(places) == 2
    # both placements name the same nodes (the journals live there)
    assert places[0]["detail"].split("nodes=")[1] \
        == places[1]["detail"].split("nodes=")[1]


def test_manual_preempt_api():
    kernel, sched = make_sched(n_nodes=1)
    job = sched.submit(blocks(blocks=30))

    def meddler():
        kernel.sleep(0.03)
        assert sched.preempt(job.id, "drain for maintenance")
        assert not sched.preempt(9999)  # unknown job: no-op
        sched.close()

    kernel.spawn(meddler, name="meddler")
    kernel.run()
    assert job.state is JobState.DONE and job.preemptions == 1


@pytest.mark.parametrize("policy", ["priority", "fair"])
def test_a_job_evicted_again_at_every_placement_is_a_livelock(policy):
    """X (hi, 2 nodes) arrives while A (hi, 2 nodes), B and C (lo, 1
    node each) fill the cluster, and evicts B and C.  B stops first and
    is re-placed on the node it freed, because X still lacks C's; X
    evicts B again before B's first block, at the same instant, without
    end: the clock never moves, so C never reaches its safe point."""
    params = {"blocks": 50, "compute": 0.01, "block_bytes": 2048}
    lo = JobSpec("lo", "blocks", 1, params=params, priority=0)
    trace = ArrivalTrace(arrivals=(
        Arrival(0.0, JobSpec("hi", "blocks", 2, params=params, priority=2)),
        Arrival(0.001, lo),
        Arrival(0.002, lo),
        Arrival(0.05, JobSpec("hi", "blocks", 2, priority=2,
                              params={**params, "blocks": 1}))))
    started = time.perf_counter()
    with pytest.raises(ProcessFailed) as failed:
        run_schedule(trace, n_nodes=4, policy=policy, preempt=True,
                     quotas={"hi": Quota(), "lo": Quota()})
    assert time.perf_counter() - started < 5.0
    assert isinstance(failed.value.original, SchedError)
    assert str(failed.value.original) == (
        f"livelock: job 1 was placed and preempted {PREEMPT_LIVELOCK + 1} "
        "times at t=0.061103600000000015 (make room for job 3 "
        "(priority 2 > 0))")
    # the abort unwound every job's waiter and carrier
    assert not [t for t in threading.enumerate()
                if t.name.startswith("repro-")]


def test_a_job_waiter_unwinds_when_the_kernel_aborts():
    """A waiter that swallowed the abort would join the next rank and
    park again, and the aborting kernel would wait for it forever."""
    _, sched = make_sched()
    joins = []

    class Rank:
        def join(self):
            joins.append(self)
            raise KernelShutdown()

    with pytest.raises(KernelShutdown):
        sched._wait_job(None, [Rank(), Rank()], [None, None])
    assert len(joins) == 1


# -- speculation budget ------------------------------------------------------


def test_speculation_budget_grants_and_denies():
    kernel, sched = make_sched(n_nodes=4, speculation_slots=1)
    spec = JobSpec(tenant="t", kind="dsort", n_nodes=2,
                   params={"records_per_node": 300, "recover": True,
                           "speculate": True})
    jobs = run_all(kernel, sched, [spec, spec])
    assert all(j.state is JobState.DONE for j in jobs)
    kinds = [d["kind"] for d in sched.decisions.entries]
    assert "speculate-grant" in kinds
    # second concurrent job found the single slot taken
    assert "speculate-deny" in kinds
