"""Geometry-inference tests: the planner must derive the tuner's winners
from the hardware cost model alone, and share its candidate ladders with
the tuner's search spaces by construction."""

import pytest

from repro.errors import ReproError
from repro.plan import (
    csort_s_candidates,
    dsort_block_candidates,
    infer_pool_size,
    plan_sort,
)
from repro.plan.geometry import RESOURCE_CLASSES


def test_dsort_plan_matches_the_tuned_optimum():
    plan = plan_sort("dsort", 4, 4096)
    assert plan.config == {"block_records": 2048, "nbuffers": 4,
                           "sort_replicas": 1}


def test_csort_plan_matches_the_tuned_optimum():
    plan = plan_sort("csort", 4, 4096)
    assert plan.config == {"s_override": 8, "nbuffers": 4,
                           "sort_replicas": 1}


def test_planner_and_tuner_share_candidate_ladders():
    from repro.tune.sorters import csort_space, dsort_space

    d_axis = {a.name: a for a in dsort_space(4, 4096).axes}["block_records"]
    assert tuple(d_axis.values) == tuple(dsort_block_candidates(4, 4096))
    c_axis = {a.name: a for a in csort_space(4, 4096).axes}["s_override"]
    assert tuple(c_axis.values) == tuple(csort_s_candidates(4, 4096))


def test_dsort_candidates_are_pow2_plus_default():
    cands = dsort_block_candidates(4, 4096)
    assert list(cands) == sorted(set(cands))
    assert 4096 in cands  # the full per-node input
    assert all(c & (c - 1) == 0 for c in cands)  # pow2 ladder + default


def test_csort_candidates_are_legal_column_counts():
    n_nodes, n_per_node = 4, 4096
    n_total = n_nodes * n_per_node
    for s in csort_s_candidates(n_nodes, n_per_node):
        assert s % n_nodes == 0
        r = n_total // s
        assert r * s == n_total  # s divides the input exactly
        assert 2 * (s - 1) ** 2 <= r  # columnsort's height requirement


def test_csort_candidates_let_a_non_shape_error_propagate(monkeypatch):
    # the ladder is the grid's whole search space: only an illegal shape
    # may drop a column count, never a bug inside the validator.  The
    # default shape is pinned first, so the broken validator is reached
    # only through the ladder's own loop
    from repro.bench import harness
    from repro.sorting.columnsort import steps

    shape = steps.plan_columnsort(4 * 4096, 4)
    for module in (steps, harness):
        monkeypatch.setattr(module, "plan_columnsort", lambda n, p: shape)

    def broken(*args):
        raise TypeError("validator bug")

    monkeypatch.setattr(steps, "validate_shape", broken)
    with pytest.raises(TypeError, match="validator bug"):
        csort_s_candidates(4, 4096)


def test_infer_pool_size_caps_at_resource_classes():
    # one buffer per overlappable resource class + one reserve, never
    # more: stages beyond the third share a class with an earlier one
    assert infer_pool_size(1) == 2
    assert infer_pool_size(2) == 3
    assert infer_pool_size(3) == 4
    assert infer_pool_size(6) == RESOURCE_CLASSES + 1 == 4


def test_every_decision_carries_a_reason():
    for sorter in ("dsort", "csort"):
        plan = plan_sort(sorter, 4, 4096)
        assert plan.decisions
        targets = {d.target for d in plan.decisions}
        assert "nbuffers" in targets
        assert "sort_replicas" in targets
        assert "channel_capacity" in targets
        for d in plan.decisions:
            assert d.reason and isinstance(d.reason, str)


def test_explain_renders_config_and_reasons():
    plan = plan_sort("dsort", 4, 4096)
    text = plan.explain()
    assert "block_records = 2048" in text
    assert "nbuffers = 4" in text
    assert plan.digest()[:16] in text


def test_unknown_sorter_raises():
    with pytest.raises(ReproError):
        plan_sort("qsort", 4, 4096)


def test_plans_scale_with_problem_size():
    small = plan_sort("dsort", 2, 512)
    large = plan_sort("dsort", 4, 4096)
    assert small.config["block_records"] <= large.config["block_records"]
    assert small.digest() != large.digest()
