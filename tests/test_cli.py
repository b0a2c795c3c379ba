"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.bench.harness import SORTERS, run_sort
from repro.cli import build_parser, main
from repro.pdm.records import RecordSchema
from repro.prov import ProvenanceRecord, metrics_digest
from repro.sched import synthetic_trace


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_distributions_lists_and_marks(capsys):
    assert main(["distributions"]) == 0
    out = capsys.readouterr().out
    assert "uniform  [paper]" in out
    assert "sorted  [adversarial]" in out
    assert "zipf" in out


def test_sort_small_run(capsys):
    code = main(["sort", "--sorter", "dsort", "--nodes", "2",
                 "--records-per-node", "512", "--distribution", "poisson"])
    assert code == 0
    out = capsys.readouterr().out
    assert "output verified: True" in out
    assert "pass1" in out and "pass2" in out
    assert "partition max/avg" in out


def test_sort_csort_small_run(capsys):
    code = main(["sort", "--sorter", "csort", "--nodes", "2",
                 "--records-per-node", "2048"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass3" in out
    # csort's three passes each read AND write the data once = 6x volume
    assert "6.00x data volume" in out


def test_sort_verifies_records_whose_payload_is_under_the_stamp(capsys):
    """A 12-byte record has 4 payload bytes, so only 4 stamp bytes:
    the verifier used to compare them with all 8 and refuse every
    correct sort ("record at global position 0 lost its payload")."""
    assert main(["sort", "--sorter", "dsort", "--nodes", "2",
                 "--records-per-node", "1024", "--record-bytes", "12"]) == 0
    assert "output verified: True" in capsys.readouterr().out


def test_sort_rejects_unknown_sorter():
    with pytest.raises(SystemExit):
        main(["sort", "--sorter", "quicksort"])


@pytest.mark.parametrize("sorter", SORTERS)
def test_sort_reaches_every_sorter_the_harness_runs(sorter, capsys):
    """``--sorter``'s choices are the harness's table: csort4 (paper
    Section III) and nowsort (Section VII) were unreachable from any
    verb while the CLI kept its own list."""
    assert main(["sort", "--sorter", sorter, "--nodes", "2",
                 "--records-per-node", "2048"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{sorter} on uniform")
    assert "output verified: True" in out


def test_tune_reaches_the_linear_dsort_space(capsys):
    """``tune.sorters`` has carried a space for the linear ablation
    since PR 19; the verb refused to name it."""
    assert main(["tune", "--sorter", "dsort-linear", "--nodes", "2",
                 "--records-per-node", "1024"]) == 0
    out = capsys.readouterr().out
    assert "dsort-linear on uniform" in out
    assert "sort_replicas" not in out  # not an axis of this space
    (plan_line,) = [line for line in out.splitlines()
                    if line.startswith("plan:")]
    assert "block_records=" in plan_line and "vs optimum)" in plan_line


def test_sweep_small(capsys):
    code = main(["sweep", "--nodes", "2", "--blocks", "128,256"])
    assert code == 0
    out = capsys.readouterr().out
    assert "128" in out and "256" in out


def test_overlap_command(capsys):
    assert main(["overlap"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_trace_command(capsys):
    code = main(["trace", "--nodes", "2", "--records-per-node", "2048",
                 "--width", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stage threads" in out
    assert "dsort-p1@0.read" in out
    assert "#" in out


def test_trace_command_writes_artifacts(tmp_path, capsys):
    trace_out = tmp_path / "t.json"
    metrics_out = tmp_path / "m.json"
    code = main(["trace", "--nodes", "2", "--records-per-node", "2048",
                 "--width", "60", "--trace-out", str(trace_out),
                 "--metrics-out", str(metrics_out)])
    assert code == 0
    doc = json.loads(trace_out.read_text())
    assert doc["traceEvents"]
    snap = json.loads(metrics_out.read_text())
    assert snap["counters"]
    out = capsys.readouterr().out
    assert str(trace_out) in out


def test_trace_command_is_run_sort_observed(tmp_path, capsys):
    """``repro trace`` no longer spells the run out; what it reads off
    ``run_sort(observe=True)`` is what its own copy used to produce."""
    metrics_out = tmp_path / "m.json"
    assert main(["trace", "--nodes", "2", "--records-per-node", "2048",
                 "--distribution", "poisson", "--seed", "3",
                 "--metrics-out", str(metrics_out)]) == 0
    run = run_sort("dsort", "poisson", RecordSchema.paper_16(), n_nodes=2,
                   n_per_node=2048, seed=3, observe=True)
    snap = json.loads(metrics_out.read_text())
    del snap["meta"]  # the file wraps the snapshot with a code stamp
    assert metrics_digest(snap) == metrics_digest(run.metrics.snapshot())
    assert (f"{run.metrics.clock() * 1e3:.2f} ms simulated"
            in capsys.readouterr().out)


def test_analyze_quickstart(tmp_path, capsys):
    trace_out = tmp_path / "trace.json"
    code = main(["analyze", "--rounds", "12",
                 "--trace-out", str(trace_out)])
    assert code == 0
    out = capsys.readouterr().out
    # the workload is built so compute dominates; the report must name it
    assert "bottleneck analysis" in out
    assert "quickstart.compute" in out.split("<-- bottleneck")[0]
    doc = json.loads(trace_out.read_text())
    events = doc["traceEvents"]
    assert {"M", "X", "C"} <= {ev["ph"] for ev in events}
    names = {ev["args"]["name"] for ev in events
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert any(n.startswith("quickstart.") for n in names)


def test_analyze_dsort_workload(tmp_path, capsys):
    code = main(["analyze", "--workload", "dsort", "--nodes", "2",
                 "--records-per-node", "2048",
                 "--trace-out", str(tmp_path / "t.json"),
                 "--metrics-out", str(tmp_path / "m.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "<-- bottleneck" in out
    snap = json.loads((tmp_path / "m.json").read_text())
    assert any(name.startswith("channel.") for name in snap["gauges"])


def test_apps_command(capsys):
    code = main(["apps", "--nodes", "2", "--matrix-side", "8",
                 "--kv-per-node", "500", "--key-space", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "transpose:" in out
    assert "group-by:" in out
    assert "20 groups" in out


def test_apps_rejects_indivisible_matrix():
    with pytest.raises(SystemExit):
        main(["apps", "--nodes", "3", "--matrix-side", "8"])


@pytest.mark.parametrize("command", [
    "sweep --blocks 512,x", "apps --nodes 0", "apps --key-space 0",
    "trace --width 0"])
def test_a_bad_number_is_refused_before_anything_runs(command, capsys):
    argv = command.split()
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {argv[1]}: " in err


def test_parser_structure():
    parser = build_parser()
    # subcommands exist
    args = parser.parse_args(["sort"])
    assert args.command == "sort"
    assert args.sorter == "dsort"
    args = parser.parse_args(["figure8", "--record-bytes", "64"])
    assert args.record_bytes == 64


def test_chaos_command_reports_and_verifies(capsys):
    code = main(["chaos", "--nodes", "2", "--records-per-node", "360",
                 "--seed", "5", "--disk-fault-rate", "0.05",
                 "--drop-rate", "0.02", "--block-records", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified         True" in out
    assert "processes        44 on 23 OS threads" in out  # exact count
    assert "faults fired" in out
    assert "output sha256" in out


def test_chaos_command_determinism_check(tmp_path, capsys):
    trace_out = tmp_path / "chaos.json"
    code = main(["chaos", "--nodes", "2", "--records-per-node", "360",
                 "--seed", "5", "--block-records", "64",
                 "--check-determinism", "--trace-out", str(trace_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "determinism check: PASS" in out
    doc = json.loads(trace_out.read_text())
    assert any(ev.get("cat") == "fault" for ev in doc["traceEvents"])


def test_chaos_determinism_check_compares_metrics(monkeypatch, capsys):
    """A run whose metrics alone wobble must fail the gate: the report
    digests them, and the harness promises byte-identical reports."""
    import repro.faults

    real = repro.faults.run_chaos_dsort
    calls = []

    def wobbling(**kwargs):
        report = real(**kwargs)
        calls.append(report)
        if len(calls) == 2:
            report = dataclasses.replace(report, metrics_digest="0" * 64)
        return report

    monkeypatch.setattr(repro.faults, "run_chaos_dsort", wobbling)
    code = main(["chaos", "--nodes", "2", "--records-per-node", "360",
                 "--seed", "5", "--block-records", "64",
                 "--check-determinism"])
    assert len(calls) == 2
    # everything the gate compared before this check still agrees
    assert calls[0].output_digest == calls[1].output_digest
    assert calls[0].trace_digest == calls[1].trace_digest
    assert calls[0].fault_events == calls[1].fault_events
    assert code == 1
    assert "determinism check: FAIL" in capsys.readouterr().out


def test_chaos_command_pass_restart(capsys):
    code = main(["chaos", "--nodes", "2", "--records-per-node", "360",
                 "--seed", "5", "--disk-fault-rate", "0",
                 "--drop-rate", "0", "--kill-disk-op", "20",
                 "--kill-disk-rank", "1", "--block-records", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass restarts    1" in out
    assert "verified         True" in out


@pytest.mark.parametrize("options, message", [
    ("--mean-interarrival 0", "mean_interarrival must be finite and > 0, "
                              "got 0.0"),
    ("--mean-interarrival inf", "mean_interarrival must be finite and > 0, "
                                "got inf"),
    ("--mean-interarrival nan", "mean_interarrival must be finite and > 0, "
                                "got nan"),
    ("--speculation-slots -1", "speculation_slots must be >= 0, got -1"),
])
def test_sched_refuses_an_out_of_range_number(options, message, capsys):
    assert main(["sched", "--jobs", "2", *options.split()]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"repro sched: error: {message}\n"


def test_sched_refuses_a_nonfinite_arrival_time_or_quota_weight(
        tmp_path, capsys):
    doc = synthetic_trace(1, 2, ("solo",)).to_json()
    doc["arrivals"][1]["time"] = float("nan")
    (tmp_path / "trace.json").write_text(json.dumps(doc))
    assert main(["sched", "--trace-in", str(tmp_path / "trace.json")]) == 2
    record = ProvenanceRecord(kind="sched", args={
        "trace": synthetic_trace(1, 2, ("solo",)).to_json(),
        "quotas": {"solo": {"weight": float("inf")}}})
    (tmp_path / "sched.prov.json").write_text(json.dumps(record.to_json()))
    assert main(["replay", str(tmp_path / "sched.prov.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "repro sched: error: arrival time must be finite and >= 0, "
        "got nan\n"
        "repro replay: error: quota weight must be finite and > 0, "
        "got inf\n")
