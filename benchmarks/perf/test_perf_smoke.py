"""Smoke test of the host-time benchmark: ``pytest benchmarks/perf -q``.

Outside tier-1's ``testpaths``.  Runs ``run.py --quick`` once (about
15 s) and checks its output against BENCHMARK.json, then checks
``compare.py`` on that output against itself and against a synthetic
``host_s`` slowdown just past the metric's bound.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402

FULL_RUN_END_TO_END = {"host_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                       "sim_s": "sim_s", "failed_frac": "ratio"}


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seed", "11", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh)


def test_every_named_workload_and_metric_is_present(contract, result):
    assert result["claim"] is None
    assert set(result["workloads"]) == {w["name"]
                                        for w in contract["workloads"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for spec in contract["end_to_end"]:
        assert FULL_RUN_END_TO_END[spec["name"]] == spec["unit"]
    for name, doc in result["workloads"].items():
        got = {k: m["unit"] for k, m in doc["end_to_end"].items()}
        assert got == FULL_RUN_END_TO_END, name
        got = {k: m["unit"] for k, m in doc["per_layer"].items()}
        assert got == per_layer, name  # all named, no unnamed extras
        for m in list(doc["end_to_end"].values()) + \
                list(doc["per_layer"].values()):
            assert isinstance(m["value"], (int, float)), name


def test_outputs_verified_and_repeatable(result):
    for name, doc in result["workloads"].items():
        assert doc["end_to_end"]["failed_frac"]["value"] == 0, doc["errors"]
        assert doc["failed"] == 0 and doc["attempted"] >= 3, name
        assert "sim_s" in doc["fingerprints"], name
        assert doc["per_layer"]["obs.span_coverage"]["value"] >= 0.95, name
        assert os.path.exists(os.path.join(ROOT, doc["trace_file"])), name


def test_driver_line_names_exactly_the_declared_metrics(contract):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--quick",
             "--workload", "groupby-dup", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {k: m["unit"] for k, m in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in contract[key]}


def test_compare_with_self_is_unchanged(result):
    rows, changes = compare.compare(result, result)
    assert len(rows) == 5 * 5 and not changes
    assert {row[-1] for row in rows} == {"unchanged"}


def test_compare_flags_host_s_past_its_bound(contract, result, tmp_path):
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}["host_s"]
    slower = copy.deepcopy(result)
    for doc in slower["workloads"].values():
        for field in ("value", "min", "q1", "q3"):
            doc["end_to_end"]["host_s"][field] *= 1.0 + bound + 0.05
    rows, changes = compare.compare(result, slower)
    assert not changes
    verdicts = {(r[0], r[1]): r[-1] for r in rows}
    for name in result["workloads"]:
        assert verdicts[(name, "host_s")] == "regressed"
        assert verdicts[(name, "setup_s")] == "unchanged"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0


def test_compare_flags_simulated_behaviour_change(result):
    moved = copy.deepcopy(result)
    doc = moved["workloads"]["dsort-uniform"]
    doc["per_layer"]["sim.switches"]["value"] += 1
    doc["fingerprints"]["sim_s"] = "0.0"
    _rows, changes = compare.compare(result, moved)
    assert len(changes) == 2
