"""Sorter tuning tests: spaces, run_sort(tune=...), offline + adaptive."""

import pytest

from repro.bench.harness import run_sort
from repro.check.races import race_from_env
from repro.errors import ReproError
from repro.pdm.records import RecordSchema
from repro.tune import (
    adaptive_tune_sort,
    csort_space,
    dsort_space,
    sort_evaluator,
    tune_sort,
)

SCHEMA = RecordSchema.paper_16()


# -- spaces ------------------------------------------------------------------

def test_dsort_space_defaults_match_the_hand_tuned_config():
    from repro.bench.harness import default_dsort_config

    space = dsort_space(2, 1024)
    default = default_dsort_config(2048, 2)
    config = space.default_config()
    assert config["block_records"] == default.block_records
    assert config["nbuffers"] == default.nbuffers
    assert config["sort_replicas"] == 1


def test_csort_space_only_offers_valid_column_counts():
    from repro.sorting.columnsort.steps import validate_shape

    space = csort_space(4, 4096)
    n_total = 4 * 4096
    (s_axis,) = [a for a in space.axes if a.name == "s_override"]
    for s in s_axis.values:
        validate_shape(n_total, n_total // s, s, 4)  # must not raise
    assert len(s_axis.values) >= 2   # there is something to search


def test_linear_dsort_space_has_no_replica_axis():
    """run_dsort_linear refuses sort_replicas > 1 (the ablation runs one
    copy of its sort stage), so its space must not offer the axis."""
    from repro.tune.sorters import _space_for

    names = [a.name for a in _space_for("dsort-linear", 2, 1024).axes]
    assert names == ["block_records", "nbuffers"]


@pytest.mark.skipif(bool(race_from_env()),
                    reason="linear dsort's exchange_done race (ROADMAP 4(0))")
def test_adaptive_tuner_copes_with_a_space_missing_an_axis():
    """It ranks axes by diagnosis, and the diagnosis always names
    ``sort_replicas``."""
    result = adaptive_tune_sort("dsort-linear", n_nodes=2, n_per_node=1024,
                                max_runs=3)
    assert "sort_replicas" not in result.best


def test_unknown_sorter_has_no_space():
    with pytest.raises(ReproError, match="no tune space"):
        tune_sort("bogosort", n_nodes=2, n_per_node=256)


# -- run_sort(tune=...) ------------------------------------------------------

def test_run_sort_rejects_unknown_tune_keys():
    with pytest.raises(ReproError, match="bogus"):
        run_sort("dsort", "uniform", SCHEMA, n_nodes=2, n_per_node=256,
                 seed=0, tune={"bogus": 1})


def test_tune_override_changes_the_run():
    base = run_sort("dsort", "uniform", SCHEMA, n_nodes=2, n_per_node=1024,
                    seed=0)
    tuned = run_sort("dsort", "uniform", SCHEMA, n_nodes=2,
                     n_per_node=1024, seed=0,
                     tune={"block_records": 256})
    assert base.verified and tuned.verified
    assert tuned.total_time != base.total_time


def test_evaluator_is_deterministic():
    evaluate = sort_evaluator("dsort", n_nodes=2, n_per_node=512, seed=3)
    config = {"block_records": 256, "nbuffers": 4, "sort_replicas": 1}
    assert evaluate(config) == evaluate(config)


# -- offline + adaptive tuners ----------------------------------------------

def test_hill_climb_tunes_dsort_and_never_regresses():
    result = tune_sort("dsort", n_nodes=2, n_per_node=1024, seed=0,
                       method="hill")
    assert result.best_score <= result.baseline_score
    assert result.improvement >= 0.0
    assert result.evaluations >= 1
    doc = result.to_json()
    assert doc["method"] == "hill"
    assert doc["best_score"] == result.best_score


def test_tune_sort_rejects_unknown_method():
    with pytest.raises(ReproError, match="unknown tune method"):
        tune_sort("dsort", n_nodes=2, n_per_node=256, method="anneal")


def test_adaptive_matches_or_beats_its_own_baseline():
    result = adaptive_tune_sort("dsort", n_nodes=2, n_per_node=1024,
                                seed=0, max_runs=6)
    assert result.best_score <= result.baseline_score
    assert result.evaluations <= 6
    # every history entry carries the signals that drove the next probe
    for config, score, signals in result.history:
        assert set(signals) == {"block_records", "sort_replicas",
                                "nbuffers"}
    doc = result.to_json()
    assert doc["method"] == "adaptive"
    assert len(doc["history"]) == len(result.history)


def test_adaptive_is_deterministic():
    def run():
        result = adaptive_tune_sort("csort", n_nodes=2, n_per_node=1024,
                                    seed=0, max_runs=4)
        return result.best, result.best_score, result.evaluations

    assert run() == run()
