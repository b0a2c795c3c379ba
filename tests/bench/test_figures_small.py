"""Smoke tests for the experiment functions at miniature scale (the
benchmark suite runs them at full scale; these keep refactors honest)."""

import pytest

from repro.bench.figures import (
    figure8_experiment,
    overlap_experiment,
    pool_size_experiment,
    virtual_stage_experiment,
)


def test_figure8_experiment_tiny():
    results = figure8_experiment(16, n_nodes=2, n_per_node=2048,
                                 distributions=("uniform",))
    pair = results["uniform"]
    assert pair["dsort"].verified and pair["csort"].verified
    assert set(pair["dsort"].phase_times) == {"sampling", "pass1",
                                              "pass2"}
    assert set(pair["csort"].phase_times) == {"pass1", "pass2", "pass3"}


def test_overlap_experiment_structure():
    results = overlap_experiment(n_blocks=8, block_records=1024)
    assert set(results) == {"serial", "pipeline", "speedup"}
    assert results["speedup"] == pytest.approx(
        results["serial"] / results["pipeline"])
    assert results["speedup"] > 1.0


def test_pool_size_experiment_tiny():
    results = pool_size_experiment((1, 3), n_blocks=6, block_records=512)
    assert results[1] > results[3]


def test_virtual_stage_experiment_tiny():
    results = virtual_stage_experiment((2, 5))
    # OS threads: every stage process is alive at once, plus the driver
    assert results[2] == {"plain": 6, "virtual": 3,
                          "plain_os_threads": 7, "virtual_os_threads": 4}
    assert results[5] == {"plain": 15, "virtual": 3,
                          "plain_os_threads": 16, "virtual_os_threads": 4}
