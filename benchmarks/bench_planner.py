"""repro.plan acceptance benchmarks: compiled plans vs. the exhaustive grid.

The planner's claim is that the hardware cost model predicts the grid's
winners: applying a compiled plan — zero search evaluations, no cluster
runs — must close at least half of the gap between the hand-tuned
default and the grid optimum, for both sorts.  On the default benchmark
it closes *all* of it (the analytic argmin is the optimum), and the grid
itself finds at least 10% over the hand-tuned default.

Away from that shape the planner is not always exact.  The gap table
grid-searches 24 cells — both sorts, six (nodes, records/node) shapes,
16- and 64-byte records — and records, per cell, the plan's geometry,
the optimum's, and how much slower the plan is (``planner_gap.txt``).

Every result is byte-deterministic across same-seed runs; the JSON
artifacts under ``results/`` are what ``repro plan --json`` would emit,
plus the measured makespans.
"""

import gc
import json
import os

from conftest import RESULTS_DIR, save_result

from repro.bench import render_table
from repro.bench.harness import run_sort
from repro.pdm.records import RecordSchema
from repro.plan import plan_sort
from repro.tune import tune_sort

N_NODES = 4
N_PER_NODE = 4096
SEED = 0

#: (nodes, records/node) shapes of the gap table; P = 16 is measured
#: once in EXPERIMENTS.md, its dsort grids being too slow for CI
GAP_SHAPES = ((2, 1024), (2, 4096), (4, 4096), (8, 4096), (4, 16384),
              (2, 32768))
GAP_SCHEMAS = (RecordSchema.paper_16(), RecordSchema.paper_64())

#: each sorter's geometry axis, the one knob the gap table reports
GEOMETRY = {"dsort": "block_records", "csort": "s_override"}


def save_json(name: str, doc: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[saved planner result to {path}]")
    return path


def plan_vs_grid(sorter):
    schema = RecordSchema.paper_16()
    common = dict(n_nodes=N_NODES, n_per_node=N_PER_NODE, seed=SEED)
    baseline = run_sort(sorter, "uniform", schema, **common)
    plan = plan_sort(sorter, N_NODES, N_PER_NODE,
                     record_bytes=schema.record_bytes)
    planned = run_sort(sorter, "uniform", schema, plan=plan, **common)
    grid = tune_sort(sorter, **common)
    assert baseline.verified and planned.verified
    # a planned run is its config plus a stamp: the grid scored the same
    assert grid.score_of(plan.config) == planned.total_time
    return {"baseline": baseline.total_time, "plan": plan,
            "planned": planned.total_time, "grid": grid}


def test_planned_defaults_close_the_tuner_gap(once):
    results = once(lambda: {s: plan_vs_grid(s)
                            for s in ("dsort", "csort")})

    rows = []
    for sorter, r in results.items():
        baseline, planned = r["baseline"], r["planned"]
        grid, plan = r["grid"], r["plan"]
        best = grid.best_score
        gap_closure = ((baseline - planned) / (baseline - best)
                       if baseline > best else 1.0)
        save_json(f"planner_{sorter}", {
            "plan": plan.to_json(),
            "baseline_ms": baseline * 1e3,
            "planned_ms": planned * 1e3,
            "tuner_best_ms": best * 1e3,
            "gap_closure": gap_closure,
            "grid_evaluations": grid.evaluations,
        })
        rows.append([sorter, baseline * 1e3, planned * 1e3, best * 1e3,
                     f"{gap_closure:.0%}", grid.evaluations])

        # the search pays: the optimum beats the hand-tuned default
        assert grid.improvement >= 0.10, \
            f"{sorter}: grid win {grid.improvement:.1%} < 10%"
        # the tentpole acceptance criteria: planned defaults close at
        # least half the default-to-tuned gap at zero evaluations
        assert gap_closure >= 0.5, \
            f"{sorter}: plan closes only {gap_closure:.0%} of the gap"

    save_result(
        "planner",
        "compiled plans vs offline tuner "
        f"({N_NODES} nodes x {N_PER_NODE} records, seed {SEED}; "
        "plans cost zero evaluations)\n"
        + render_table(["sorter", "default (ms)", "planned (ms)",
                        "tuner best (ms)", "gap closed", "grid evals"],
                       rows))


def gap_row(sorter, n_nodes, n_per_node, schema):
    """One gap-table row: the plan's and the optimum's geometry, their
    makespans, and the plan's gap — the plan's score is looked up in the
    grid's trials, not re-run."""
    grid = tune_sort(sorter, schema=schema, n_nodes=n_nodes,
                     n_per_node=n_per_node, seed=SEED)
    plan = plan_sort(sorter, n_nodes, n_per_node,
                     record_bytes=schema.record_bytes)
    plan_score = grid.score_of(plan.config)
    axis = GEOMETRY[sorter]
    row = [sorter, n_nodes, n_per_node, schema.record_bytes,
           plan.config[axis], grid.best[axis], plan_score * 1e3,
           grid.best_score * 1e3, f"{plan_score / grid.best_score - 1:.2%}",
           grid.evaluations]
    del grid
    gc.collect()  # a finished run's cluster is freed only by generation 2
    return row


def test_planner_gap_table(once):
    rows = once(lambda: [gap_row(sorter, n_nodes, n_per_node, schema)
                         for sorter in GEOMETRY
                         for n_nodes, n_per_node in GAP_SHAPES
                         for schema in GAP_SCHEMAS])
    save_result(
        "planner_gap",
        f"plan vs grid optimum per cell (uniform, seed {SEED}; geometry "
        "is dsort block_records / csort s_override)\n"
        + render_table(["sorter", "P", "N/P", "B", "plan geom",
                        "best geom", "plan (ms)", "best (ms)", "gap",
                        "grid evals"], rows))

    # the plan is never better than the exhaustive optimum, and it
    # matches it exactly on the committed benchmark shape
    gaps = {(r[0], r[1], r[2], r[3]): r[6] / r[7] - 1 for r in rows}
    assert all(gap >= 0 for gap in gaps.values())
    assert gaps[("dsort", 4, 4096, 16)] == gaps[("csort", 4, 4096, 16)] == 0


def test_planner_output_is_byte_deterministic(once):
    def twice():
        return (plan_sort("dsort", N_NODES, N_PER_NODE).to_json(),
                plan_sort("dsort", N_NODES, N_PER_NODE).to_json(),
                plan_sort("csort", N_NODES, N_PER_NODE).to_json())

    first, second, _ = once(twice)
    a = json.dumps(first, indent=2, sort_keys=True)
    b = json.dumps(second, indent=2, sort_keys=True)
    assert a.encode() == b.encode()
