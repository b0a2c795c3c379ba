"""Offline search tests: axes, spaces, the grid, determinism."""

import pytest

from repro.errors import ReproError
from repro.tune import Axis, TuneSpace, grid_search


def quadratic_evaluator(optimum):
    """Separable convex score with its minimum at ``optimum``."""
    calls = []

    def evaluate(config):
        calls.append(dict(config))
        return float(sum((config[k] - v) ** 2 for k, v in optimum.items()))

    evaluate.calls = calls
    return evaluate


def small_space():
    return TuneSpace([
        Axis("x", (0, 1, 2, 3, 4), default=0),
        Axis("y", (0, 1, 2), default=0),
    ])


# -- Axis / TuneSpace --------------------------------------------------------

def test_axis_default_falls_back_to_first_value():
    assert Axis("a", (3, 5, 7)).default == 3


def test_axis_rejects_empty_duplicate_and_foreign_default():
    with pytest.raises(ReproError):
        Axis("a", ())
    with pytest.raises(ReproError):
        Axis("a", (1, 1, 2))
    with pytest.raises(ReproError):
        Axis("a", (1, 2), default=9)


def test_space_rejects_duplicate_axis_names():
    with pytest.raises(ReproError):
        TuneSpace([Axis("a", (1,)), Axis("a", (2,))])
    with pytest.raises(ReproError):
        TuneSpace([])


def test_space_size_and_grid_are_lexicographic():
    grid = small_space().grid()
    assert len(grid) == 15
    assert grid[0] == {"x": 0, "y": 0}
    assert grid[1] == {"x": 0, "y": 1}   # last axis varies fastest
    assert grid[-1] == {"x": 4, "y": 2}


# -- the grid ----------------------------------------------------------------

def test_grid_search_finds_the_global_optimum():
    evaluate = quadratic_evaluator({"x": 3, "y": 1})
    result = grid_search(evaluate, small_space())
    assert result.best == {"x": 3, "y": 1}
    assert result.best_score == 0.0
    assert result.baseline == {"x": 0, "y": 0}
    assert result.baseline_score == 10.0
    assert result.improvement == 1.0


def test_grid_search_descends_to_the_optimum_on_convex_landscape():
    # a convex landscape whose axes are coupled, with its minimum at (3, 2)
    def evaluate(config):
        return float((config["x"] - config["y"] - 1) ** 2
                     + (config["y"] - 2) ** 2)

    result = grid_search(evaluate, small_space())
    assert result.best == {"x": 3, "y": 2}
    assert result.best_score == 0.0
    assert result.baseline_score == 5.0
    assert result.improvement == 1.0
    # an optimum off the grid: the best grid point closes part of the gap
    result = grid_search(quadratic_evaluator({"x": 6, "y": 1}), small_space())
    assert result.best == {"x": 4, "y": 1}
    assert result.improvement == 1.0 - 4.0 / 37.0


def test_grid_search_evaluates_each_config_once_in_grid_order():
    evaluate = quadratic_evaluator({"x": 3, "y": 1})
    result = grid_search(evaluate, small_space())
    assert evaluate.calls == small_space().grid()
    assert [t.config for t in result.trials] == evaluate.calls
    assert result.evaluations == 15


def test_grid_search_baseline_wins_ties():
    # flat along y: every (0, y) ties the baseline (0, 0), and a later
    # config replaces the incumbent only on a strictly lower score
    evaluate = quadratic_evaluator({"x": 0})
    result = grid_search(evaluate, small_space())
    assert result.best == {"x": 0, "y": 0}
    assert result.improvement == 0.0
    # off the baseline, the first of several tied optima in grid order
    result = grid_search(quadratic_evaluator({"x": 2}), small_space())
    assert result.best == {"x": 2, "y": 0}


def test_score_of_looks_up_a_trial_without_running():
    evaluate = quadratic_evaluator({"x": 3, "y": 1})
    result = grid_search(evaluate, small_space())
    calls = len(evaluate.calls)
    assert result.score_of({"y": 2, "x": 4}) == 2.0   # key order is free
    assert len(evaluate.calls) == calls
    with pytest.raises(ReproError, match="not evaluated"):
        result.score_of({"x": 9, "y": 0})


def test_searches_are_deterministic():
    def run():
        evaluate = quadratic_evaluator({"x": 2, "y": 2})
        result = grid_search(evaluate, small_space())
        return (result.best, result.best_score,
                [(t.config, t.score) for t in result.trials])

    assert run() == run()


def test_to_json_is_sorted_and_excludes_cache_hits():
    # the trial log lists real runs only: each config once, even the
    # baseline, which the grid visits as one of its points
    evaluate = quadratic_evaluator({"x": 1, "y": 1})
    space = TuneSpace([Axis("y", (0, 1, 2)), Axis("x", (0, 1, 2, 3, 4))])
    result = grid_search(evaluate, space)
    doc = result.to_json()
    assert list(doc["best"]) == ["x", "y"]
    assert all(list(t["config"]) == ["x", "y"] for t in doc["trials"])
    configs = [tuple(t["config"].items()) for t in doc["trials"]]
    assert len(set(configs)) == len(configs) == doc["evaluations"] == 15
    assert doc["improvement"] == result.improvement
