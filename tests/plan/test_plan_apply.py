"""Plan application tests: serialization round-trips, the run_sort(plan=)
path, warm-started tuning, and byte-exact replay of planned runs."""

import re

import pytest

from repro.errors import ReproError
from repro.pdm.records import RecordSchema
from repro.plan import Plan, plan_sort


def test_plan_round_trips_through_json():
    plan = plan_sort("dsort", 4, 4096)
    back = Plan.from_json(plan.to_json())
    assert back.config == plan.config
    assert back.digest() == plan.digest()
    assert (back.sorter, back.n_nodes, back.n_per_node) == (
        plan.sorter, plan.n_nodes, plan.n_per_node)
    assert [d.target for d in back.decisions] == [
        d.target for d in plan.decisions]


def test_tampered_plan_json_is_rejected():
    doc = plan_sort("dsort", 4, 4096).to_json()
    doc["config"]["block_records"] = 64  # digest no longer matches
    with pytest.raises(ReproError):
        Plan.from_json(doc)


def test_plan_json_with_an_unknown_field_is_rejected_by_name():
    # the shape an earlier version emitted (benchmarks/results/
    # planner_dsort.json carried a "fuse" flag): refused for the field,
    # not later for a digest that no longer covers it
    doc = plan_sort("dsort", 4, 4096).to_json()
    doc["fuse"] = True
    with pytest.raises(ReproError, match=r"unknown field\(s\) \['fuse'\]"):
        Plan.from_json(doc)


def test_run_sort_applies_a_compiled_plan():
    from repro.bench.harness import run_sort

    plan = plan_sort("dsort", 2, 1024)
    run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=1024, seed=0, plan=plan)
    assert run.verified
    # the planned geometry actually reached the cluster: the run used
    # the plan's block size, not the hand-tuned default
    baseline = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                        n_nodes=2, n_per_node=1024, seed=0)
    assert baseline.verified
    assert run.total_time <= baseline.total_time


def test_run_sort_plan_true_compiles_on_the_spot():
    from repro.bench.harness import run_sort

    run = run_sort("csort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=1024, seed=0, plan=True)
    assert run.verified


def test_explicit_tune_overrides_win_over_the_plan():
    from repro.bench.harness import run_sort

    plan = plan_sort("dsort", 2, 1024)
    override = {"block_records": 128}
    run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=1024, seed=0, plan=plan,
                   tune=override)
    assert run.verified


def test_mismatched_plan_is_rejected():
    from repro.bench.harness import run_sort

    plan = plan_sort("dsort", 4, 4096)
    with pytest.raises(ReproError, match="plan"):
        run_sort("dsort", "uniform", RecordSchema.paper_16(),
                 n_nodes=2, n_per_node=1024, seed=0, plan=plan)
    with pytest.raises(ReproError, match="plan"):
        run_sort("csort", "uniform", RecordSchema.paper_16(),
                 n_nodes=4, n_per_node=4096, seed=0, plan=plan)


def test_planned_run_replays_byte_exactly():
    from repro.bench.harness import run_sort
    from repro.prov import replay

    plan = plan_sort("dsort", 2, 1024)
    run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=1024, seed=0, plan=plan,
                   provenance=True)
    record = run.provenance
    assert record is not None
    assert record.args["plan"]["digest"] == plan.digest()
    result = replay(record)
    assert result.ok, result.describe()


def test_applied_plan_changes_the_stage_graph_identity():
    from repro.bench.harness import run_sort

    schema = RecordSchema.paper_16()
    plain = run_sort("dsort", "uniform", schema, n_nodes=2,
                     n_per_node=1024, seed=0, provenance=True,
                     tune=plan_sort("dsort", 2, 1024).config)
    planned = run_sort("dsort", "uniform", schema, n_nodes=2,
                       n_per_node=1024, seed=0, provenance=True,
                       plan=plan_sort("dsort", 2, 1024))
    # same knob values, but one run carries an applied plan: the
    # provenance identity must distinguish them
    assert plain.provenance is not None and planned.provenance is not None
    assert plain.provenance.stage_graphs != planned.provenance.stage_graphs


def _stage_names(run):
    """{program name: {stage names}} as the run's metrics saw them."""
    names: dict[str, set[str]] = {}
    for name in run.metrics.names():
        m = re.fullmatch(r"fg\.(.+)\.stage\.(.+)\.accepts", name)
        if m:
            names.setdefault(m.group(1), set()).add(m.group(2))
    return names


@pytest.mark.parametrize("sorter", ["dsort", "dsort-linear", "csort"])
def test_a_plan_is_its_geometry_plus_a_stamp(sorter):
    """What a plan *is*: running under it equals running its config as
    ``tune`` overrides — same simulated behaviour, same stages — except
    that every program's structural fingerprint carries the plan."""
    from repro.bench.harness import run_sort

    schema = RecordSchema.paper_16()
    plan = plan_sort(sorter, 2, 1024)
    planned = run_sort(sorter, "uniform", schema, n_nodes=2,
                       n_per_node=1024, seed=0, provenance=True,
                       plan=plan)
    tuned = run_sort(sorter, "uniform", schema, n_nodes=2,
                     n_per_node=1024, seed=0, provenance=True,
                     tune=plan.config)
    assert planned.phase_times == tuned.phase_times
    assert planned.bytes_io == tuned.bytes_io
    assert planned.provenance.digests == tuned.provenance.digests
    names = _stage_names(planned)
    assert names and names == _stage_names(tuned)
    stamped, plain = (planned.provenance.stage_graphs,
                      tuned.provenance.stage_graphs)
    assert stamped.keys() == plain.keys()
    assert all(stamped[name] != plain[name] for name in stamped)


def test_warm_started_hill_climb_is_no_worse_and_no_slower():
    from repro.tune import tune_sort

    cold = tune_sort("dsort", n_nodes=2, n_per_node=512, seed=0)
    warm = tune_sort("dsort", n_nodes=2, n_per_node=512, seed=0,
                     warm_start=True)
    assert warm.best_score <= cold.best_score
    assert warm.evaluations <= cold.evaluations
