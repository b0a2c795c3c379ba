"""The sample rule: an observed run keeps metric series only when traced.

``observed_cluster`` sets the registry's ``record_samples`` to its
``trace`` argument.  Only the Chrome exporter and ``repro.obs.timeseries``
read series, and both run only on traced runs, so an untraced run drops
the series and nothing else: snapshots, digests and decisions repeat.
"""

import json

import repro.prov
from repro.bench.figures import run_block_pipeline
from repro.bench.harness import benchmark_hardware
from repro.obs import Counter, Gauge, stage_series
from repro.prov import metrics_digest, observed_cluster
from repro.sched import Quota, run_schedule, synthetic_trace


def _schedule(monkeypatch, **kwargs):
    """One small schedule; returns its report and its kernel's registry."""
    registries = []

    def observed(*args, **kw):
        cluster, capture = observed_cluster(*args, **kw)
        registries.append(cluster.kernel.metrics)
        return cluster, capture

    monkeypatch.setattr(repro.prov, "observed_cluster", observed)
    trace = synthetic_trace(
        4, 8, ("a", "b"), mean_interarrival=0.05,
        kinds=("blocks", "dsort"), n_nodes_choices=(2,),
        params={"dsort": {"records_per_node": 1024}})
    report = run_schedule(trace, n_nodes=4,
                          quotas={"a": Quota(), "b": Quota()},
                          policy="fair", seed=4, provenance=False, **kwargs)
    (registry,) = registries
    return report, registry


def test_untraced_schedule_keeps_no_series(monkeypatch):
    _, registry = _schedule(monkeypatch)
    assert not registry.record_samples
    for metric in registry:
        if isinstance(metric, (Counter, Gauge)):
            assert metric.samples is None, metric.name


def test_traced_schedule_keeps_the_declared_series(monkeypatch, tmp_path):
    path = tmp_path / "sched.trace.json"
    _, registry = _schedule(monkeypatch, trace_path=str(path))
    assert registry.record_samples
    occupancy = [m for m in registry
                 if m.name.startswith("channel.")
                 and m.name.endswith(".occupancy")]
    accepts = [m for m in registry
               if m.name.startswith("fg.") and m.name.endswith(".accepts")]
    assert occupancy and accepts
    for metric in occupancy + accepts:
        assert metric.samples is not None, metric.name
    assert sum(len(m.samples) for m in occupancy) > 0
    assert all(m.samples for m in accepts)
    # the exporter drew them as counter tracks
    events = json.loads(path.read_text())["traceEvents"]
    assert any(e["ph"] == "C" for e in events)


def test_series_do_not_reach_digests_or_decisions(monkeypatch, tmp_path):
    untraced, _ = _schedule(monkeypatch)
    traced, _ = _schedule(monkeypatch,
                          trace_path=str(tmp_path / "t.json"))
    assert metrics_digest(untraced.metrics) == metrics_digest(
        traced.metrics)
    assert untraced.decision_digest == traced.decision_digest


def _block_pipeline(trace):
    cluster, _ = observed_cluster(1, trace=trace,
                                  hardware=benchmark_hardware())
    run_block_pipeline(cluster, nbuffers=2, n_blocks=6, block_records=256,
                       name="rule")
    return stage_series(cluster.kernel.metrics, "rule", bins=4)


def test_traced_observed_run_has_every_stage_series():
    series = _block_pipeline(trace=True)
    assert [s.stage for s in series] == ["compute", "read", "write"]
    assert all(s.total_accepts > 0 for s in series)
    # untraced, no stage recorded a series to slice
    assert _block_pipeline(trace=False) == []
