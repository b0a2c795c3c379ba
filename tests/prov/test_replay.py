"""End-to-end replay determinism tests (the tentpole's acceptance bar).

Record a seeded chaos dsort run and a tuned csort run, replay both, and
assert byte-identical reproduction — digests matching, stage graphs
matching, verdict REPRODUCED — including through the emitted standalone
replay script run as a subprocess.
"""

import os
import subprocess
import sys

import pytest

from repro.bench.harness import run_sort
from repro.errors import ReproError
from repro.faults import chaos_plan, run_chaos_dsort
from repro.faults.retry import RetryPolicy
from repro.pdm.records import RecordSchema
from repro.prov import ProvenanceRecord, emit_script, replay
from repro.recover import RecoverPolicy, SpeculationPolicy

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def chaos_record():
    plan = chaos_plan(7, 2, disk_fault_rate=0.02, drop_rate=0.01,
                      permanent_disk_op=20, permanent_disk_rank=0)
    report = run_chaos_dsort(n_nodes=2, records_per_node=400, seed=7,
                             plan=plan, pass_retries=2, block_records=64,
                             vertical_block_records=32,
                             out_block_records=64)
    assert report.verified
    assert report.provenance is not None
    return report.provenance


def tuned_csort_record():
    run = run_sort("csort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=1024, seed=5,
                   tune={"nbuffers": 6}, provenance=True)
    assert run.verified
    return run.provenance


def test_chaos_run_replays_byte_exactly():
    record = chaos_record()
    assert record.kind == "chaos_dsort"
    assert record.fault_plan is not None
    assert record.fault_plan["seed"] == 7
    result = replay(record)
    assert result.ok
    assert result.code_match
    assert result.matches == {"output": True, "metrics": True,
                              "trace": True}
    assert "REPRODUCED" in result.describe()


def test_recovering_chaos_run_replays_byte_exactly():
    # args nest RecoverPolicy -> SpeculationPolicy and a RetryPolicy
    report = run_chaos_dsort(
        n_nodes=2, records_per_node=400, seed=7, block_records=64,
        vertical_block_records=32, out_block_records=64,
        retry=RetryPolicy(max_attempts=5),
        recover=RecoverPolicy(backup_runs=True,
                              speculation=SpeculationPolicy(patience=3)))
    record = ProvenanceRecord.from_json(report.provenance.to_json())
    assert record.args["recover"]["speculation"]["patience"] == 3
    assert record.args["retry"]["max_attempts"] == 5
    assert replay(record).ok


def test_tuned_csort_run_replays_byte_exactly():
    record = tuned_csort_record()
    assert record.kind == "sort"
    assert record.args["tune"] == {"nbuffers": 6}
    result = replay(record)
    assert result.ok
    assert result.replayed.digests == record.digests
    assert result.replayed.stage_graphs == record.stage_graphs


def test_recording_is_passive():
    """Capturing provenance must not perturb the run: digests of a
    captured run equal digests computed from an identical captured run
    (the replay tests above), and the record itself is deterministic."""
    a = tuned_csort_record()
    b = tuned_csort_record()
    assert a.record_digest() == b.record_digest()
    assert a.to_json() == b.to_json()


def test_tampered_digest_is_detected():
    record = tuned_csort_record()
    doc = record.to_json()
    doc["digests"]["output"] = "0" * 64
    tampered = ProvenanceRecord.from_json(doc)
    result = replay(tampered)
    assert not result.ok
    assert result.matches["output"] is False
    assert result.matches["metrics"] is True
    # same tree, so the divergence is flagged as nondeterminism
    assert result.code_match
    assert "DIVERGED" in result.describe()


def test_replay_rejects_unknown_kinds():
    record = ProvenanceRecord(kind="mystery")
    with pytest.raises(ReproError, match="cannot replay"):
        replay(record)
    with pytest.raises(ReproError, match="cannot emit"):
        emit_script(record)


def test_emitted_script_reproduces_the_run(tmp_path):
    record = chaos_record()
    script_path = tmp_path / "replay_chaos.py"
    text = emit_script(record, str(script_path))
    assert text == script_path.read_text()
    assert emit_script(record) == text  # deterministic emission
    env = dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC))
    proc = subprocess.run([sys.executable, str(script_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "REPRODUCED byte-exactly" in proc.stdout
