"""Job kinds through the scheduler: real programs, correct outputs."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.errors import SchedError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sched import (
    JobKind,
    JobSpec,
    JobState,
    Quota,
    Scheduler,
    get_kind,
    kind_names,
)
from repro.sched.kinds import _KINDS
from repro.sim.trace import Tracer
from repro.sim.virtual import VirtualTimeKernel


def run_one(spec, n_nodes=2, **sched_kwargs):
    kernel = VirtualTimeKernel(tracer=Tracer())
    cluster = Cluster(n_nodes=n_nodes, kernel=kernel)
    sched = Scheduler(cluster, {spec.tenant: Quota()}, "fifo",
                      **sched_kwargs)
    sched.start()
    job = sched.submit(spec)
    sched.close()
    kernel.run()
    return cluster, sched, job


def test_registry_has_builtins():
    assert set(kind_names()) >= {"blocks", "csort", "dsort", "groupby"}
    with pytest.raises(SchedError, match="unknown job kind"):
        get_kind("nope")


def test_register_custom_kind(monkeypatch):
    ran = []

    def runner(node, comm, job, ctl, shared):
        ran.append(comm.rank)
        return "hi"

    monkeypatch.setitem(_KINDS, "custom-test",
                        JobKind(name="custom-test", runner=runner,
                                demand=lambda spec: 1))
    _, _, job = run_one(JobSpec(tenant="t", kind="custom-test",
                                n_nodes=2))
    assert job.state is JobState.DONE
    assert sorted(ran) == [0, 1]
    assert job.result == ["hi", "hi"]


def test_dsort_job_produces_sorted_output():
    spec = JobSpec(tenant="t", kind="dsort", n_nodes=2,
                   params={"records_per_node": 600})
    cluster, _, job = run_one(spec)
    assert job.state is JobState.DONE, job.error
    from repro.pdm.striped import StripedFile

    schema = RecordSchema(16)
    striped = StripedFile(cluster, "j0-output", schema,
                          block_records=256, owners=job.alloc)
    out = striped.read_all()
    keys = out["key"]
    assert len(keys) == 1200
    assert np.all(keys[:-1] <= keys[1:])  # globally sorted PDM stripes


def test_preempted_dsort_resumes_from_journals():
    """A dsort preempted at the after-pass-1 safe point resumes without
    redoing pass 1: the resumed attempt runs measurably less work than
    a clean full run of the identical job."""
    spec = JobSpec(
        tenant="t", kind="dsort", n_nodes=2,
        params={"records_per_node": 2000, "recover": True,
                "block_records": 128})

    # deterministic baseline: the same job, uninterrupted
    _, _, clean = run_one(spec)
    assert clean.state is JobState.DONE, clean.error
    clean_time = clean.end_time - clean.start_time

    kernel = VirtualTimeKernel(tracer=Tracer())
    cluster = Cluster(n_nodes=2, kernel=kernel)
    sched = Scheduler(cluster, {"t": Quota()}, "fifo")
    sched.start()
    job = sched.submit(spec)

    def meddler():
        # land inside pass 1 (sampling is ~10% of the run), so the job
        # stops at the after-pass-1 safe point with its runs journaled
        kernel.sleep(0.3 * clean_time)
        assert sched.preempt(job.id, "test")
        sched.close()

    kernel.spawn(meddler, name="meddler")
    kernel.run()
    assert job.state is JobState.DONE, job.error
    assert job.preemptions == 1 and job.attempts == 2
    resumed_attempt = job.end_time - job.start_time
    # the resume skipped pass 1 entirely: strictly less work than a
    # full restart would have done
    assert resumed_attempt < 0.9 * clean_time


def test_groupby_job_aggregates():
    spec = JobSpec(tenant="t", kind="groupby", n_nodes=2,
                   params={"records_per_node": 500, "distinct_keys": 40})
    cluster, _, job = run_one(spec)
    assert job.state is JobState.DONE, job.error
    assert all(r["records"] == 500 for r in job.result)
    # each key lives on exactly one node; distinct counts partition 40
    total_distinct = sum(r["distinct"] for r in job.result)
    assert total_distinct == 40

    from repro.apps.groupby import KeyValueSchema

    schema = KeyValueSchema()
    for p in job.alloc:
        rf = RecordFile(cluster.nodes[p].disk, "j0-kv-groups", schema)
        groups = rf.read_all()
        keys = groups["key"]
        assert np.all(keys[:-1] < keys[1:])  # sorted, unique


def test_csort_job_sorts():
    spec = JobSpec(tenant="t", kind="csort", n_nodes=2,
                   params={"records_per_node": 512})
    cluster, _, job = run_one(spec)
    assert job.state is JobState.DONE, job.error


@pytest.mark.parametrize("n_nodes", [1, 2])
def test_csort_default_block_fits_columnsorts_own_shape(n_nodes):
    """The default stripe block comes from columnsort's shape chooser: one
    node (s = 8 columns, r = 128) used to get a 512-record block and fail
    with ColumnsortShapeError; two nodes keep their 128."""
    from repro.pdm.striped import StripedFile
    from repro.sched.kinds import _csort_block_default

    spec = JobSpec(tenant="t", kind="csort", n_nodes=n_nodes,
                   params={"records_per_node": 1024})
    assert _csort_block_default(spec) == 128
    cluster, _, job = run_one(spec, n_nodes=n_nodes)
    assert job.state is JobState.DONE, job.error
    schema = RecordSchema(16)
    given = np.concatenate([
        RecordFile(cluster.nodes[p].disk, "j0-input", schema).read_all()
        for p in job.alloc])
    out = StripedFile(cluster, "j0-output", schema, block_records=128,
                      owners=job.alloc).read_all()
    np.testing.assert_array_equal(out["key"], np.sort(given["key"]))


def test_csort_shape_without_a_legal_matrix_fails_the_job_not_admission():
    spec = JobSpec(tenant="t", kind="csort", n_nodes=3,
                   params={"records_per_node": 1024})
    _, _, job = run_one(spec, n_nodes=3)
    assert job.state is JobState.FAILED
    assert "no legal columnsort shape" in job.error


def test_demand_scales_with_spec():
    small = JobSpec(tenant="t", kind="blocks", n_nodes=1)
    big = JobSpec(tenant="t", kind="blocks", n_nodes=4,
                  params={"block_bytes": 1 << 20})
    kind = get_kind("blocks")
    assert kind.demand(big) > kind.demand(small) > 0
