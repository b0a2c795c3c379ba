"""Unit tests for job specs, lifecycle records, and tenant quotas."""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import SchedError
from repro.sched import (
    Arrival,
    Job,
    JobSpec,
    JobState,
    Quota,
    Scheduler,
    synthetic_trace,
)
from repro.sim.virtual import VirtualTimeKernel


def test_quota_json_round_trip():
    quota = Quota(max_nodes=8, max_inflight=2,
                  max_buffer_bytes=1 << 20, weight=2.5)
    assert Quota.from_json(quota.to_json()) == quota


@pytest.mark.parametrize("kwargs", [
    {"max_nodes": 0},
    {"max_inflight": 0},
    {"max_buffer_bytes": 0},
    {"weight": 0.0},
    {"weight": -1.0},
])
def test_quota_validation(kwargs):
    with pytest.raises(SchedError):
        Quota(**kwargs)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, message", [
    *[(lambda w=w: Quota(weight=w), "quota weight must be finite")
      for w in (NAN, INF)],
    (lambda: Quota.from_json(json.loads('{"weight": NaN}')),
     "quota weight must be finite"),
    *[(lambda t=t: Arrival(t, JobSpec("t", "blocks")),
       "arrival time must be finite") for t in (NAN, INF)],
    *[(lambda m=m: synthetic_trace(1, 4, mean_interarrival=m),
       "mean_interarrival must be finite and > 0") for m in (0.0, INF, NAN)],
    (lambda: Scheduler(Cluster(n_nodes=1, kernel=VirtualTimeKernel()),
                       {"t": Quota()}, speculation_slots=-1),
     "speculation_slots must be >= 0"),
], ids=["weight-nan", "weight-inf", "weight-nan-document", "arrival-nan",
        "arrival-inf", "interarrival-0", "interarrival-inf",
        "interarrival-nan", "speculation-slots-negative"])
def test_a_nonfinite_or_out_of_range_input_is_refused(make, message):
    with pytest.raises(SchedError, match=message):
        make()


def test_spec_json_round_trip():
    spec = JobSpec(tenant="alpha", kind="dsort", n_nodes=3,
                   params={"records_per_node": 512}, priority=7)
    assert JobSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("kwargs", [
    {"tenant": "", "kind": "blocks"},
    {"tenant": "t", "kind": ""},
    {"tenant": "t", "kind": "blocks", "n_nodes": 0},
])
def test_spec_validation(kwargs):
    with pytest.raises(SchedError):
        JobSpec(**kwargs)


def test_job_defaults_and_prefix():
    job = Job(id=17, spec=JobSpec(tenant="t", kind="blocks"))
    assert job.state is JobState.QUEUED
    assert not job.state.terminal
    assert job.prefix == "j17"
    assert job.attempts == 0 and job.preemptions == 0


def test_terminal_states():
    assert JobState.DONE.terminal and JobState.FAILED.terminal
    for state in (JobState.QUEUED, JobState.ADMITTED,
                  JobState.RUNNING, JobState.PREEMPTED):
        assert not state.terminal


def test_latency_is_submit_to_end():
    job = Job(id=0, spec=JobSpec(tenant="t", kind="blocks"),
              submit_time=1.5, end_time=4.0)
    assert job.latency == pytest.approx(2.5)
