"""Benchmark harness: experiment runners and table rendering.

Every table and figure of the paper's evaluation maps to a function here
(see DESIGN.md's experiment index); the modules under ``benchmarks/``
wrap these in pytest-benchmark entry points and print the regenerated
rows.  Results carry per-phase timings, verification status, and resource
accounting so EXPERIMENTS.md can compare paper-shape vs measured-shape.
"""

from repro.bench.harness import (
    SortRun,
    benchmark_hardware,
    default_csort_config,
    default_dsort_config,
    run_sort,
)
from repro.bench.figures import (
    buffer_sweep_experiment,
    figure8_experiment,
    overlap_experiment,
    pool_size_experiment,
    unbalanced_experiment,
    virtual_stage_experiment,
)
from repro.bench.reporting import render_figure8, render_table

__all__ = [
    "SortRun",
    "benchmark_hardware",
    "default_dsort_config",
    "default_csort_config",
    "run_sort",
    "figure8_experiment",
    "unbalanced_experiment",
    "buffer_sweep_experiment",
    "pool_size_experiment",
    "overlap_experiment",
    "virtual_stage_experiment",
    "render_table",
    "render_figure8",
]
