"""run_schedule end to end: stats, determinism, provenance, CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import SchedError
from repro.sched import (
    Arrival,
    ArrivalTrace,
    JobSpec,
    Quota,
    run_schedule,
    synthetic_trace,
)
from repro.sched.harness import percentile


# -- workload traces ---------------------------------------------------------


def test_trace_json_round_trip():
    trace = synthetic_trace(11, 25, ("a", "b"), kinds=("blocks",))
    again = ArrivalTrace.loads(trace.dumps())
    assert again == trace
    assert again.tenants == trace.tenants


def test_synthetic_trace_is_seed_deterministic():
    t1 = synthetic_trace(5, 40, ("a", "b"))
    t2 = synthetic_trace(5, 40, ("a", "b"))
    t3 = synthetic_trace(6, 40, ("a", "b"))
    assert t1 == t2
    assert t1 != t3


def test_trace_orders_arrivals():
    trace = ArrivalTrace(arrivals=(
        Arrival(2.0, JobSpec(tenant="t", kind="blocks")),
        Arrival(1.0, JobSpec(tenant="t", kind="blocks")),
    ))
    assert [a.time for a in trace] == [1.0, 2.0]


def test_tenant_share_skews_load():
    trace = synthetic_trace(3, 200, ("heavy", "light"),
                            tenant_share={"heavy": 9.0, "light": 1.0})
    heavy = sum(1 for a in trace if a.spec.tenant == "heavy")
    assert heavy > 150


def test_synthetic_trace_validation():
    with pytest.raises(SchedError):
        synthetic_trace(0, 0)
    with pytest.raises(SchedError):
        synthetic_trace(0, 5, ())


# -- percentile helper -------------------------------------------------------


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert percentile(values, 0.50) == 5.0
    assert percentile(values, 0.99) == 10.0
    assert percentile(values, 0.0) == 1.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)


# -- end-to-end runs ---------------------------------------------------------


def small_run(policy="fifo", seed=4, provenance=True):
    trace = synthetic_trace(seed, 16, ("a", "b"),
                            mean_interarrival=0.05)
    return run_schedule(trace, n_nodes=4,
                        quotas={"a": Quota(), "b": Quota()},
                        policy=policy, seed=seed,
                        provenance=provenance)


def test_report_accounts_for_every_job():
    report = small_run()
    assert len(report.jobs) == 16
    assert report.done == 16 and report.failed == 0
    assert 0.0 < report.utilization <= 1.0
    per_tenant = sum(st["jobs"] for st in report.tenants.values())
    assert per_tenant == 16
    for st in report.tenants.values():
        assert st["p99"] >= st["p50"] >= 0.0
    assert "sched.jobs.done" in report.metrics["counters"]


def test_identical_runs_have_identical_decision_logs():
    r1 = small_run()
    r2 = small_run()
    assert r1.decision_digest == r2.decision_digest
    assert r1.decisions == r2.decisions
    assert r1.provenance.record_digest() == r2.provenance.record_digest()


def test_different_policy_changes_the_log():
    r1 = small_run(policy="fifo")
    r2 = small_run(policy="fair")
    assert r1.decision_digest != r2.decision_digest


def test_provenance_replays_byte_exactly():
    from repro.prov import replay

    report = small_run()
    record = report.provenance
    assert record.kind == "sched"
    assert record.sched_decisions  # decisions captured off the trace
    result = replay(record)
    assert result.ok, result.describe()
    assert result.matches["decisions"]


def test_fair_share_rescues_the_starved_tenant():
    """A flooding heavy tenant starves the light tenant under FIFO;
    weighted fair share restores the light tenant's latency."""
    trace = synthetic_trace(
        9, 80, ("heavy", "light"),
        mean_interarrival=0.02,
        tenant_share={"heavy": 8.0, "light": 1.0},
        params={"blocks": {"blocks": 6, "compute": 0.01}})
    quotas = {"heavy": Quota(max_nodes=2, max_inflight=2),
              "light": Quota(max_nodes=2, max_inflight=2)}

    fifo = run_schedule(trace, n_nodes=2, quotas=quotas,
                        policy="fifo", provenance=False)
    fair = run_schedule(trace, n_nodes=2, quotas=quotas,
                        policy="fair", provenance=False)
    assert fifo.done == fair.done == 80
    assert fair.tenants["light"]["p99"] < fifo.tenants["light"]["p99"]


# -- CLI ---------------------------------------------------------------------


def test_cli_sched_smoke(tmp_path, capsys):
    prov = tmp_path / "sched.prov.json"
    decisions = tmp_path / "decisions.jsonl"
    rc = cli_main(["sched", "--jobs", "12", "--nodes", "2",
                   "--policy", "fair", "--seed", "3",
                   "--prov-out", str(prov),
                   "--decisions-out", str(decisions)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy=fair" in out and "utilization" in out
    # exact: carriers are reused, so 35 processes never need more
    assert "processes    35 on 5 OS threads" in out
    assert prov.exists() and decisions.exists()
    lines = decisions.read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert entries[-1]["kind"] == "stop"
    doc = json.loads(prov.read_text())
    assert doc["kind"] == "sched"


def test_cli_sched_trace_in(tmp_path, capsys):
    trace = synthetic_trace(2, 6, ("solo",), mean_interarrival=0.1)
    path = tmp_path / "trace.json"
    path.write_text(trace.dumps())
    rc = cli_main(["sched", "--trace-in", str(path), "--nodes", "2"])
    assert rc == 0
    assert "solo" in capsys.readouterr().out
