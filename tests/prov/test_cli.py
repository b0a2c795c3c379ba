"""Tests for the provenance CLI surface: --prov-out and `repro replay`."""

import json

from repro.cli import main
from repro.prov import ProvenanceRecord


def record_via_sort(tmp_path, capsys):
    path = tmp_path / "sort.prov.json"
    code = main(["sort", "--sorter", "dsort", "--nodes", "2",
                 "--records-per-node", "512", "--seed", "3",
                 "--prov-out", str(path)])
    assert code == 0
    capsys.readouterr()
    return path


def test_sort_prov_out_writes_a_loadable_record(tmp_path, capsys):
    path = record_via_sort(tmp_path, capsys)
    record = ProvenanceRecord.load(str(path))
    assert record.kind == "sort"
    assert record.args["sorter"] == "dsort"
    assert record.digests["output"]


def test_replay_command_reproduces_a_recorded_sort(tmp_path, capsys):
    path = record_via_sort(tmp_path, capsys)
    assert main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "REPRODUCED byte-exactly" in out


def test_replay_json_verdict_and_failure_exit(tmp_path, capsys):
    path = record_via_sort(tmp_path, capsys)
    assert main(["replay", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["code_match"] is True
    # tamper with a digest: replay must notice and exit nonzero
    record = ProvenanceRecord.load(str(path))
    record.digests["trace"] = "0" * 64
    record.save(str(path))
    assert main(["replay", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_script_emission(tmp_path, capsys):
    path = record_via_sort(tmp_path, capsys)
    script = tmp_path / "replay.py"
    assert main(["replay", str(path), "--script", str(script)]) == 0
    text = script.read_text()
    assert "from repro.prov import ProvenanceRecord, replay" in text
    assert '"kind": "sort"' in text


def test_chaos_prov_out(tmp_path, capsys):
    path = tmp_path / "chaos.prov.json"
    code = main(["chaos", "--nodes", "2", "--records-per-node", "400",
                 "--seed", "7", "--block-records", "64",
                 "--kill-disk-op", "20", "--prov-out", str(path)])
    assert code == 0
    assert "provenance record written" in capsys.readouterr().out
    record = ProvenanceRecord.load(str(path))
    assert record.kind == "chaos_dsort"
    assert record.fault_plan is not None


def test_replay_rejects_non_record_files(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": "world"}\n')
    assert main(["replay", str(path)]) == 2
    assert "not a provenance record" in capsys.readouterr().err


def test_replay_refuses_a_version_1_record(tmp_path, capsys):
    path = record_via_sort(tmp_path, capsys)
    doc = json.loads(path.read_text())
    del doc["decisions"]
    doc.update(record_version=1, tune_decisions=[], recovery_decisions=[],
               sched_decisions=[])
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "version 1 is older than this code reads (3)" in captured.err
