"""Golden runs: record + replay the flagship experiments as provenance.

Every benchmark in this suite reports numbers; this one makes the numbers
*auditable*.  It records a provenance record (repro.prov) for one dsort
run, one csort run, and one chaos run, replays each in-session, and
asserts byte-exact reproduction.  The records are saved under
``results/golden_<name>.prov.json`` so EXPERIMENTS.md can point every
quoted number at a replayable artifact (``python -m repro replay
benchmarks/results/golden_dsort.prov.json``).

This benchmark replays what it just recorded (determinism within one
revision).  Drift *between* revisions is caught elsewhere: tier-1
``tests/prov/test_committed_golden.py`` and CI's ``golden-runs`` job
replay the committed ``results/golden_*.prov.json`` before this file
overwrites them, so a change that moves a timeline or a stage-graph
fingerprint has to re-record them on purpose.
"""

import os

from conftest import RESULTS_DIR, save_result

from repro.bench.harness import run_sort
from repro.bench.reporting import render_table
from repro.faults import chaos_plan, run_chaos_dsort
from repro.pdm.records import RecordSchema
from repro.prov import replay

NODES = 3
RECORDS = 1500
SEED = 42


def _save_record(name, record):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"golden_{name}.prov.json")
    record.save(path)
    print(f"[saved provenance record to {path}]")
    return path


def golden_runs_experiment():
    schema = RecordSchema.paper_16()
    runs = {}
    for sorter in ("dsort", "csort"):
        run = run_sort(sorter, "uniform", schema, n_nodes=NODES,
                       n_per_node=RECORDS, seed=SEED, provenance=True)
        runs[sorter] = run.provenance
    chaos = run_chaos_dsort(
        n_nodes=NODES, records_per_node=RECORDS, seed=SEED,
        plan=chaos_plan(SEED, NODES, disk_fault_rate=0.02, drop_rate=0.01,
                        permanent_disk_op=25, permanent_disk_rank=1),
        pass_retries=2, block_records=128, vertical_block_records=64,
        out_block_records=128)
    assert chaos.verified
    runs["chaos"] = chaos.provenance
    results = {name: replay(record) for name, record in runs.items()}
    return runs, results


def test_golden_runs_record_and_replay(once):
    records, results = once(golden_runs_experiment)

    rows = []
    for name, record in records.items():
        _save_record(name, record)
        result = results[name]
        rows.append([name, record.kind, record.record_digest()[:16],
                     "REPRODUCED" if result.ok else "DIVERGED"])
    save_result(
        "golden_runs",
        f"golden provenance runs ({NODES} nodes, {NODES * RECORDS} "
        f"records, seed {SEED}) — record, replay, verify digests\n"
        + render_table(["run", "kind", "record digest", "replay"], rows))

    for name, result in results.items():
        assert result.ok, f"{name} diverged: {result.to_json()}"
        assert result.code_match
    # the chaos record really captured the injected faults: the plan,
    # and every fault that fired
    assert records["chaos"].fault_plan is not None
    assert records["chaos"].decisions["fault"]
    assert records["chaos"].digests["output"]
