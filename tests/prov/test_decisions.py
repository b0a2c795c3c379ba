"""One decision stream: a record carries its owners' logs, not the trace.

The scheduler, the recovery manager and the fault injector each keep
one :class:`~repro.prov.DecisionLog`; the harness hands it to the
capture, so a record's ``decisions`` are the report's entries, and
replay compares them entry by entry.
"""

import dataclasses
import hashlib

import pytest

from repro.bench.harness import run_sort
from repro.cli import main
from repro.errors import ReproError
from repro.faults import chaos_plan, run_chaos_dsort
from repro.pdm.records import RecordSchema
from repro.prov import ProvenanceRecord, canonical_json, replay
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sched import Quota, run_schedule, synthetic_trace


@pytest.fixture(scope="module")
def speculating():
    """CI's recovering golden run: a straggler raced by a backup."""
    report = run_chaos_dsort(
        n_nodes=3, records_per_node=600, seed=7,
        plan=chaos_plan(7, 3, straggler_rank=1), block_records=64,
        vertical_block_records=32, out_block_records=64,
        recover=RecoverPolicy(checkpoint=True, backup_runs=True,
                              reassign=True,
                              speculation=SpeculationPolicy()))
    assert report.verified
    return report


def test_a_speculating_chaos_record_carries_the_managers_entries(
        speculating):
    record = speculating.provenance
    assert record.decisions == {"fault": speculating.fault_events,
                                "recover": speculating.recovery_decisions}
    kinds = [d["kind"] for d in record.decisions["recover"]]
    assert "speculate" in kinds and "winner" in kinds, kinds
    assert set(record.decisions["recover"][0]) == {
        "time", "kind", "rank", "detail"}
    # and the entries survive the record's own JSON round trip
    again = ProvenanceRecord.from_json(record.to_json())
    assert again.decisions == record.decisions


def test_a_captured_schedule_carries_the_schedulers_entries():
    report = run_schedule(synthetic_trace(4, 16, ("a", "b"),
                                          mean_interarrival=0.05),
                          n_nodes=4, quotas={"a": Quota(), "b": Quota()},
                          policy="fair", seed=4)
    record = report.provenance
    assert record.decisions == {"sched": report.decisions}
    text = "".join(canonical_json(entry) + "\n"
                   for entry in record.decisions["sched"])
    assert text == report.decision_text
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == report.decision_digest == record.digests["decisions"]


def test_a_plain_sort_record_has_no_decisions():
    run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=512, seed=3, provenance=True)
    assert run.provenance.decisions == {}
    assert "log" not in run.provenance.describe()


def test_replay_names_the_first_divergent_decision(speculating):
    record = speculating.provenance
    assert "REPRODUCED" in replay(record).describe()
    doc = record.to_json()
    doc["decisions"]["recover"][2]["rank"] += 1
    edited = ProvenanceRecord.from_json(doc)
    result = replay(edited)
    assert not result.ok and not result.decisions_match
    # every digest still matches: only the decision comparison sees it
    assert all(result.matches.values()) and result.stage_graphs_match
    source, index, old, new = result.first_divergent_decision()
    assert (source, index) == ("recover", 2)
    assert (old, new) == (doc["decisions"]["recover"][2],
                          record.decisions["recover"][2])
    text = result.describe()
    assert "decisions        MISMATCH\n    first differs  recover[2]" in text
    assert f"recorded       {old}" in text
    assert f"replayed       {new}" in text
    assert "DIVERGED" in text
    assert result.to_json()["decisions_match"] is False


def test_a_chaos_record_carries_every_fired_fault(speculating):
    record = speculating.provenance
    faults = record.decisions["fault"]
    assert len(faults) == speculating.fault_summary["total"] > 0
    assert set(faults[0]) == {"time", "kind", "site", "rank", "detail"}
    # the report's count by kind is the stream's
    kinds = [entry["kind"] for entry in faults]
    assert speculating.fault_summary["by_kind"] == {
        kind: kinds.count(kind) for kind in kinds}


def test_replay_names_the_first_fault_that_fired_differently(speculating):
    record = speculating.provenance
    assert "REPRODUCED" in replay(record).describe()
    doc = record.to_json()
    doc["decisions"]["fault"][1]["rank"] += 1
    result = replay(ProvenanceRecord.from_json(doc))
    assert not result.ok and not result.decisions_match
    assert all(result.matches.values()) and result.stage_graphs_match
    source, index, old, new = result.first_divergent_decision()
    assert (source, index) == ("fault", 1)
    assert (old, new) == (doc["decisions"]["fault"][1],
                          record.decisions["fault"][1])
    text = result.describe()
    assert "decisions        MISMATCH\n    first differs  fault[1]" in text
    assert "DIVERGED" in text


def test_an_edited_decision_entry_reads_as_an_edited_record(speculating,
                                                           tmp_path):
    # CI's edit: every digest reproduces, only the decisions differ
    doc = speculating.provenance.to_json()
    doc["decisions"]["fault"][0]["rank"] += 1
    result = replay(ProvenanceRecord.from_json(doc))
    text = result.describe()
    assert "only the record's decision entries differ" in text
    assert "nondeterministic" not in text
    # a digest mismatch under the same code is still nondeterminism
    moved = dataclasses.replace(
        result, matches={**result.matches, "output": False})
    assert "nondeterministic" in moved.describe()
    assert "decision entries differ" not in moved.describe()
    # and the edited record still fails the replay command
    path = tmp_path / "edited.json"
    ProvenanceRecord.from_json(doc).save(str(path))
    assert main(["replay", str(path)]) == 1


def test_a_version_2_record_is_refused_by_its_version(speculating):
    # version 2 carried no fault stream: refused for its version, not
    # read as a run that fired no faults
    doc = speculating.provenance.to_json()
    del doc["decisions"]["fault"]
    doc["record_version"] = 2
    with pytest.raises(ReproError,
                       match=r"^provenance record version 2 is older than "
                             r"this code reads \(3\)"):
        ProvenanceRecord.from_json(doc)
