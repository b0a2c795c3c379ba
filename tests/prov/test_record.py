"""Tests for the ProvenanceRecord format and its capture helpers."""

import io

import pytest

from repro.errors import ReproError
from repro.prov import (
    RECORD_VERSION,
    DecisionLog,
    ProvenanceCapture,
    ProvenanceRecord,
    metrics_digest,
    trace_digest,
)
from repro.sim import Tracer, VirtualTimeKernel
from repro.sim.trace import RECOVER, SCHED


def sample_record(**overrides):
    fields = dict(
        kind="sort",
        args={"sorter": "dsort", "distribution": "uniform",
              "record_bytes": 16, "n_nodes": 2, "n_per_node": 512,
              "block_records": None, "seed": 3, "tune": None},
        seeds={"workload": 3, "config": None},
        fault_plan=None,
        stage_graphs={"dsort-p1@0": "ab" * 32},
        digests={"output": "cd" * 32, "metrics": "ef" * 32,
                 "trace": "01" * 32},
        repro_version="0.6.0",
        code_fingerprint="23" * 32,
    )
    fields.update(overrides)
    return ProvenanceRecord(**fields)


def test_save_load_round_trip(tmp_path):
    record = sample_record(created="2026-08-07T00:00:00Z")
    path = tmp_path / "run.prov.json"
    record.save(str(path))
    loaded = ProvenanceRecord.load(str(path))
    assert loaded == record
    assert loaded.record_digest() == record.record_digest()


def test_save_load_round_trip_via_file_objects():
    record = sample_record()
    buf = io.StringIO()
    record.save(buf)
    buf.seek(0)
    assert ProvenanceRecord.load(buf) == record


def test_record_digest_excludes_created_stamp():
    plain = sample_record()
    stamped = sample_record(created="2026-08-07T12:34:56Z")
    assert plain.record_digest() == stamped.record_digest()
    # but any substantive field changes the identity
    assert sample_record(args=dict(plain.args, seed=4)).record_digest() \
        != plain.record_digest()


def test_from_json_rejects_newer_versions_and_junk():
    with pytest.raises(ReproError, match="newer"):
        ProvenanceRecord.from_json(
            {"kind": "sort", "record_version": RECORD_VERSION + 1})
    with pytest.raises(ReproError, match="not a provenance record"):
        ProvenanceRecord.from_json({"no": "kind"})
    with pytest.raises(ReproError, match="not a provenance record"):
        ProvenanceRecord.from_json([1, 2, 3])


def test_from_json_refuses_older_versions_by_version():
    # a version-1 record carries the three trail fields version 2 folded
    # into ``decisions``: refused for its version, not a field it lacks
    doc = sample_record().to_json()
    del doc["decisions"]
    doc.update(record_version=1, tune_decisions=[], recovery_decisions=[],
               sched_decisions=[])
    with pytest.raises(ReproError,
                       match=r"version 1 is older than this code reads "
                             r"\(3\); replay it at the commit that "
                             r"recorded it, or re-record"):
        ProvenanceRecord.from_json(doc)


def test_from_json_refuses_unknown_fields():
    # a field this version does not declare would be dropped from
    # record_digest() and from the next save(): a writer that adds one
    # bumps RECORD_VERSION instead (and is then refused as "newer")
    doc = sample_record().to_json()
    doc["some_future_extension"] = {"x": 1}
    with pytest.raises(
            ReproError,
            match=r"unknown field\(s\) \['some_future_extension'\]"):
        ProvenanceRecord.from_json(doc)


def test_metrics_digest_tracks_snapshot_content():
    kernel = VirtualTimeKernel()
    registry = kernel.enable_metrics()
    registry.counter("c").inc(1)
    one = metrics_digest(registry.snapshot())
    assert one == metrics_digest(registry.snapshot())
    registry.counter("c").inc(1)
    assert metrics_digest(registry.snapshot()) != one


def test_trace_and_decision_capture():
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    kernel.enable_metrics()
    capture = ProvenanceCapture(kernel)
    log = DecisionLog(kernel, RECOVER, "recovery", counter="recovery")
    idle = DecisionLog(kernel, SCHED, "scheduler")

    def worker():
        kernel.sleep(1.0)
        log.append({"time": kernel.now(), "kind": "resume",
                    "detail": "p from 1"}, "resume p from 1")
        kernel.sleep(1.0)

    kernel.spawn(worker, name="worker")
    kernel.run()
    digest = trace_digest(tracer)
    assert len(digest) == 64 and digest == trace_digest(tracer)
    # the instant carries the owner's text; the record, the log's entries
    (instant,) = [ev for ev in tracer.events if ev.kind == RECOVER]
    assert (instant.time, instant.process, instant.detail) == (
        1.0, "recovery", "resume p from 1")
    assert log.text() == '{"detail":"p from 1","kind":"resume","time":1.0}\n'
    snapshot = kernel.metrics.snapshot()
    assert snapshot["counters"]["recovery.resume"]["value"] == 1
    record = capture.record("sort", {}, {}, logs=(log, idle))
    # a source that decided nothing is absent
    assert record.decisions == {RECOVER: log.entries}


def test_describe_mentions_the_essentials():
    text = sample_record(created="2026-08-07").describe()
    assert "kind=sort" in text
    assert "output sha256" in text
    assert "fault plan       none" in text
