"""Command-line interface: run experiments without writing a script.

Usage::

    python -m repro sort --sorter dsort --distribution poisson
    python -m repro figure8 --record-bytes 16
    python -m repro sweep --blocks 512,1024,2048
    python -m repro overlap
    python -m repro distributions
    python -m repro analyze --trace-out trace.json
    python -m repro chaos --kill-disk-op 40 --prov-out run.prov.json
    python -m repro sched --jobs 200 --policy fair --preempt
    python -m repro replay run.prov.json

Every command builds a fresh simulated cluster with the scaled paper
hardware, runs deterministically, verifies the output, and prints the
same tables the benchmark suite saves under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import __version__
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.harness import SORTERS
    from repro.tune.sorters import TUNE_SPACES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FG programming environment — experiment runner")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser(
        "sort", help="run one sorting experiment and print its breakdown")
    p_sort.add_argument("--sorter", default="dsort", choices=SORTERS)
    p_sort.add_argument("--distribution", default="uniform")
    p_sort.add_argument("--nodes", type=int, default=16)
    p_sort.add_argument("--records-per-node", type=int, default=16384)
    p_sort.add_argument("--record-bytes", type=int, default=16)
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.add_argument("--prov-out", metavar="PATH",
                        help="capture a provenance record of the run "
                             "(replayable with `repro replay`)")

    p_fig = sub.add_parser(
        "figure8", help="regenerate Figure 8 (dsort vs csort table)")
    p_fig.add_argument("--record-bytes", type=int, default=16,
                       choices=[16, 64])
    p_fig.add_argument("--nodes", type=int, default=16)
    p_fig.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser(
        "sweep", help="sweep dsort's pass-1 buffer size")
    p_sweep.add_argument("--blocks", default="512,1024,2048,4096",
                         help="comma-separated block sizes in records")
    p_sweep.add_argument("--nodes", type=int, default=16)

    sub.add_parser("overlap",
                   help="pipeline-vs-serial overlap demonstration")

    sub.add_parser("distributions", help="list available key distributions")

    p_apps = sub.add_parser(
        "apps", help="run the beyond-sorting applications "
                     "(out-of-core transpose + group-by)")
    p_apps.add_argument("--nodes", type=int, default=4)
    p_apps.add_argument("--matrix-side", type=int, default=128)
    p_apps.add_argument("--kv-per-node", type=int, default=10000)
    p_apps.add_argument("--key-space", type=int, default=500)

    p_trace = sub.add_parser(
        "trace", help="run dsort with the tracer and print a Gantt chart")
    p_trace.add_argument("--nodes", type=int, default=2)
    p_trace.add_argument("--records-per-node", type=int, default=16384)
    p_trace.add_argument("--distribution", default="uniform")
    p_trace.add_argument("--width", type=int, default=100)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--trace-out", metavar="PATH",
                         help="also write a Chrome-trace JSON "
                              "(open in chrome://tracing or Perfetto)")
    p_trace.add_argument("--metrics-out", metavar="PATH",
                         help="also write a metrics-registry snapshot JSON")

    p_chaos = sub.add_parser(
        "chaos", help="run a sorter under seeded fault injection "
                      "(verified, with recovery stats)")
    p_chaos.add_argument("--sorter", choices=("dsort", "csort"),
                         default="dsort",
                         help="which sorter to chaos-test (csort has no "
                              "recovery manager: transient faults only)")
    p_chaos.add_argument("--nodes", type=int, default=3)
    p_chaos.add_argument("--records-per-node", type=int, default=None,
                         help="records per node (default 2000 for dsort, "
                              "1728 for csort)")
    p_chaos.add_argument("--seed", type=int, default=1234)
    p_chaos.add_argument("--recover", action="store_true",
                         help="dsort only: run under the fine-grained "
                              "recovery manager (block checkpoints, "
                              "backup runs, partition re-assignment)")
    p_chaos.add_argument("--speculate", action="store_true",
                         help="dsort only: also launch speculative "
                              "backup merges for stragglers "
                              "(implies --recover)")
    p_chaos.add_argument("--disk-fault-rate", type=float, default=0.02,
                         help="per-op transient disk-fault probability")
    p_chaos.add_argument("--drop-rate", type=float, default=0.01,
                         help="per-message wire-drop probability")
    p_chaos.add_argument("--straggler", type=int, default=None,
                         metavar="RANK",
                         help="slow one node down (compute + disk)")
    p_chaos.add_argument("--straggler-slowdown", type=float, default=3.0)
    p_chaos.add_argument("--kill-disk-op", type=int, default=None,
                         metavar="N",
                         help="permanent fault at disk op N on "
                              "--kill-disk-rank (forces a pass restart)")
    p_chaos.add_argument("--kill-disk-rank", type=int, default=0)
    p_chaos.add_argument("--pass-retries", type=int, default=2,
                         help="cluster-wide restarts allowed per pass")
    p_chaos.add_argument("--block-records", type=int, default=128,
                         help="pass-1 block size in records")
    p_chaos.add_argument("--check-determinism", action="store_true",
                         help="run twice and assert identical outputs, "
                              "fault timelines, metrics, and event traces")
    p_chaos.add_argument("--trace-out", metavar="PATH",
                         help="write a Chrome-trace JSON with fault "
                              "markers")
    p_chaos.add_argument("--prov-out", metavar="PATH",
                         help="capture a provenance record of the chaos "
                              "run (replayable with `repro replay`)")

    p_lint = sub.add_parser(
        "lint", help="statically lint the FG programs assembled by the "
                     "given Python files (executes each file with the "
                     "findings collector armed)")
    p_lint.add_argument("files", nargs="*", metavar="FILE",
                        help="program files to lint (e.g. examples/*.py)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON instead of text")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit nonzero on warnings too")
    p_lint.add_argument("--effects", action="store_true",
                        help="also report every stage's inferred "
                             "parallel-safety class (pure / read_shared "
                             "/ write_shared)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog (FG101..FG114) and "
                             "exit")

    p_tune = sub.add_parser(
        "tune", help="auto-tune a sorting benchmark: offline search "
                     "(hill/grid) or run-by-run adaptive feedback")
    p_tune.add_argument("--sorter", default="dsort",
                        choices=[s for s in SORTERS if s in TUNE_SPACES])
    p_tune.add_argument("--method", default="hill",
                        choices=["hill", "grid", "adaptive"])
    p_tune.add_argument("--distribution", default="uniform")
    p_tune.add_argument("--nodes", type=int, default=4)
    p_tune.add_argument("--records-per-node", type=int, default=4096)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--out", metavar="PATH",
                        help="write the result (best config, baseline, "
                             "trial log) as JSON")
    p_tune.add_argument("--prov-out", metavar="PATH",
                        help="re-run the winning config with provenance "
                             "capture and write its record (replayable "
                             "with `repro replay`)")
    p_tune.add_argument("--warm-start", action="store_true",
                        help="seed the hill climb at the compiled plan's "
                             "config instead of the hand-tuned default "
                             "(hill method only)")

    p_plan = sub.add_parser(
        "plan", help="compile a static execution plan for a sorting "
                     "benchmark: geometry inferred from the hardware "
                     "cost model, no cluster runs")
    p_plan.add_argument("--sorter", default="dsort",
                        choices=["dsort", "csort"])
    p_plan.add_argument("--nodes", type=int, default=4)
    p_plan.add_argument("--records-per-node", type=int, default=4096)
    p_plan.add_argument("--record-bytes", type=int, default=16)
    p_plan.add_argument("--explain", action="store_true",
                        help="print every planning decision with its "
                             "reason")
    p_plan.add_argument("--json", action="store_true",
                        help="emit the serialized plan as JSON")
    p_plan.add_argument("--out", metavar="PATH",
                        help="write the serialized plan as JSON (load "
                             "with Plan.from_json, or pass to "
                             "run_sort(plan=...))")

    p_sched = sub.add_parser(
        "sched", help="run a multi-tenant job schedule over one shared "
                      "cluster: quotas, placement policy, preemption")
    p_sched.add_argument("--nodes", type=int, default=4)
    p_sched.add_argument("--jobs", type=int, default=40,
                         help="synthetic workload size")
    p_sched.add_argument("--tenants", default="alpha,beta",
                         help="comma-separated tenant names")
    p_sched.add_argument("--policy", default="fair",
                         choices=["fifo", "priority", "fair"])
    p_sched.add_argument("--kinds", default="blocks",
                         help="comma-separated job kinds to draw from "
                              "(blocks, dsort, csort, groupby)")
    p_sched.add_argument("--mean-interarrival", type=float, default=0.2,
                         help="mean virtual seconds between arrivals")
    p_sched.add_argument("--seed", type=int, default=0)
    p_sched.add_argument("--preempt", action="store_true",
                         help="enable priority preemption")
    p_sched.add_argument("--speculation-slots", type=int, default=0,
                         help="cross-tenant speculation budget")
    p_sched.add_argument("--trace-in", metavar="PATH",
                         help="arrival-trace JSON to run instead of a "
                              "synthetic workload")
    p_sched.add_argument("--trace-out", metavar="PATH",
                         help="Chrome-trace JSON output path")
    p_sched.add_argument("--decisions-out", metavar="PATH",
                         help="write the decision log as JSON lines")
    p_sched.add_argument("--prov-out", metavar="PATH",
                         help="capture a provenance record of the "
                              "schedule (replayable with `repro replay`)")

    p_replay = sub.add_parser(
        "replay", help="re-execute a recorded run byte-exactly and "
                       "verify its output/metrics/trace digests, or emit "
                       "a standalone replay script")
    p_replay.add_argument("record", metavar="RECORD",
                          help="provenance record JSON (from --prov-out "
                               "or run_sort(provenance=True))")
    p_replay.add_argument("--script", metavar="PATH",
                          help="write a standalone Python replay script "
                               "instead of replaying now")
    p_replay.add_argument("--json", action="store_true",
                          help="emit the replay verdict as JSON")

    p_an = sub.add_parser(
        "analyze",
        help="run the quickstart pipeline (or dsort) with full "
             "observability: bottleneck report + trace/metrics artifacts")
    p_an.add_argument("--workload", default="quickstart",
                      choices=["quickstart", "dsort"])
    p_an.add_argument("--trace-out", metavar="PATH", default="trace.json",
                      help="Chrome-trace JSON output path "
                           "(default: trace.json)")
    p_an.add_argument("--metrics-out", metavar="PATH",
                      help="metrics-registry snapshot JSON output path")
    p_an.add_argument("--rounds", type=int, default=24,
                      help="quickstart: blocks through the pipeline")
    p_an.add_argument("--nbuffers", type=int, default=4,
                      help="quickstart: buffer-pool size")
    p_an.add_argument("--nodes", type=int, default=2,
                      help="dsort: cluster size")
    p_an.add_argument("--records-per-node", type=int, default=16384,
                      help="dsort: records per node")
    p_an.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema

    schema = RecordSchema(args.record_bytes)
    run = run_sort(args.sorter, args.distribution, schema,
                   n_nodes=args.nodes, n_per_node=args.records_per_node,
                   seed=args.seed, provenance=bool(args.prov_out))
    print(f"{run.sorter} on {run.distribution}: "
          f"{run.n_nodes} nodes x {run.n_per_node} "
          f"{run.record_bytes}-byte records "
          f"({run.total_bytes / 2**20:.1f} MiB)")
    for phase, seconds in run.phase_times.items():
        print(f"  {phase:10s} {seconds * 1e3:10.3f} ms")
    print(f"  {'total':10s} {run.total_time * 1e3:10.3f} ms")
    print(f"  output verified: {run.verified}")
    if run.partition_imbalance is not None:
        print(f"  partition max/avg: {run.partition_imbalance:.4f}")
    print(f"  disk bytes moved: {run.bytes_io} "
          f"({run.bytes_io / run.total_bytes:.2f}x data volume)")
    print(f"  wire bytes sent:  {run.bytes_wire}")
    if args.prov_out:
        run.provenance.save(args.prov_out)
        print(f"  provenance record: {args.prov_out} "
              f"(verify with `repro replay {args.prov_out}`)")
    return 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    from repro.bench.figures import figure8_experiment
    from repro.bench.reporting import render_figure8

    results = figure8_experiment(args.record_bytes, n_nodes=args.nodes,
                                 seed=args.seed)
    print(render_figure8(results, args.record_bytes))
    worst = max(pair["dsort"].total_time / pair["csort"].total_time
                for pair in results.values())
    print(f"\nworst-case dsort/csort ratio: {worst:.4f} "
          "(paper: 0.7426-0.8506)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.figures import buffer_sweep_experiment
    from repro.bench.reporting import render_table

    blocks = [int(b) for b in args.blocks.split(",") if b]
    results = buffer_sweep_experiment(blocks, n_nodes=args.nodes)
    rows = [[block, run.total_time] for block, run in sorted(
        results.items())]
    print(render_table(["block_records", "dsort total (s)"], rows))
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    from repro.bench.figures import overlap_experiment

    results = overlap_experiment()
    print(f"serial:    {results['serial'] * 1e3:9.3f} ms")
    print(f"pipelined: {results['pipeline'] * 1e3:9.3f} ms")
    print(f"speedup:   {results['speedup']:9.2f}x")
    return 0


def _cmd_distributions(args: argparse.Namespace) -> int:
    from repro.workloads.distributions import (
        ADVERSARIAL_DISTRIBUTIONS,
        DISTRIBUTIONS,
        PAPER_DISTRIBUTIONS,
    )

    for name in sorted(DISTRIBUTIONS):
        marks = []
        if name in PAPER_DISTRIBUTIONS:
            marks.append("paper")
        if name in ADVERSARIAL_DISTRIBUTIONS:
            marks.append("adversarial")
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        print(f"{name}{suffix}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema

    run = run_sort("dsort", args.distribution, RecordSchema.paper_16(),
                   n_nodes=args.nodes, n_per_node=args.records_per_node,
                   seed=args.seed, observe=True)
    stage_rows = run.tracer.node0_stage_names()
    print(f"dsort on {args.nodes} nodes, {args.distribution}: "
          f"{run.metrics.clock() * 1e3:.2f} ms simulated; "
          "node-0 stage threads:\n")
    print(run.tracer.gantt(width=args.width, processes=stage_rows))
    _write_artifacts(args, run.tracer, run.metrics, processes=stage_rows)
    return 0


def _write_artifacts(args, tracer, metrics, processes=None) -> None:
    """Write --trace-out / --metrics-out artifacts if requested."""
    from repro.obs import write_chrome_trace, write_metrics_json

    if getattr(args, "trace_out", None):
        doc = write_chrome_trace(args.trace_out, tracer, metrics=metrics,
                                 processes=processes)
        print(f"\nwrote Chrome trace: {args.trace_out} "
              f"({len(doc['traceEvents'])} events; open in "
              "chrome://tracing or https://ui.perfetto.dev)")
    if getattr(args, "metrics_out", None):
        write_metrics_json(args.metrics_out, metrics)
        print(f"wrote metrics snapshot: {args.metrics_out}")


def _cmd_apps(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.apps.groupby import (
        GroupByConfig,
        KeyValueSchema,
        run_groupby,
    )
    from repro.apps.transpose import MATRIX_FILE, run_transpose
    from repro.cluster import Cluster, HardwareModel
    from repro.pdm.blockfile import RecordFile

    P = args.nodes
    n = args.matrix_side
    if n % P != 0:
        raise SystemExit(f"--matrix-side must be a multiple of "
                         f"--nodes ({P})")
    hw = HardwareModel.scaled_paper_cluster()

    cluster = Cluster(n_nodes=P, hardware=hw)
    rng = np.random.default_rng(0)
    rows = n // P
    for node in cluster.nodes:
        block = rng.random((rows, n))
        node.disk.storage.write(MATRIX_FILE, 0,
                                block.reshape(-1).view(np.uint8))
    cluster.run(run_transpose, n)
    print(f"transpose: {n}x{n} float64 on {P} nodes in "
          f"{cluster.kernel.now() * 1e3:.2f} ms simulated")

    schema = KeyValueSchema()
    cluster = Cluster(n_nodes=P, hardware=hw)
    for node in cluster.nodes:
        keys = rng.integers(0, args.key_space, size=args.kv_per_node,
                            dtype=np.uint64)
        values = rng.integers(0, 1000, size=args.kv_per_node,
                              dtype=np.uint64)
        RecordFile(node.disk, "kv-input", schema).poke(
            0, schema.make(keys, values))
    reports = cluster.run(run_groupby, GroupByConfig())
    groups = sum(r.distinct_keys for r in reports)
    print(f"group-by:  {P * args.kv_per_node} records -> {groups} groups "
          f"in {cluster.kernel.now() * 1e3:.2f} ms simulated")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs import analyze_bottleneck

    if args.workload == "quickstart":
        from repro.bench.figures import run_block_pipeline
        from repro.bench.harness import benchmark_hardware
        from repro.prov import observed_cluster

        cluster, _ = observed_cluster(1, hardware=benchmark_hardware())
        # 1.5x a block-read so the compute stage is the unambiguous
        # bottleneck — the report should *name* it, not leave a tie
        run_block_pipeline(cluster, nbuffers=args.nbuffers,
                           n_blocks=args.rounds, block_records=4096,
                           compute_reads=1.5, seed=args.seed,
                           name="quickstart", pipeline="work")
        tracer, metrics = cluster.kernel.tracer, cluster.kernel.metrics
        stage_rows = [n for n in tracer.process_names()
                      if n.startswith("quickstart.")]
        title = (f"quickstart read->compute->write pipeline "
                 f"({args.rounds} blocks, {args.nbuffers} buffers)")
    else:
        from repro.bench.harness import run_sort
        from repro.pdm.records import RecordSchema

        run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                       n_nodes=args.nodes,
                       n_per_node=args.records_per_node, seed=args.seed,
                       observe=True)
        tracer, metrics = run.tracer, run.metrics
        stage_rows = tracer.node0_stage_names()
        title = f"dsort on {args.nodes} nodes (node-0 stage threads)"

    print(f"{title}: {metrics.clock() * 1e3:.2f} ms simulated\n")
    report = analyze_bottleneck(tracer, processes=stage_rows)
    print(report.render())
    _print_wait_profiles(metrics)
    _write_artifacts(args, tracer, metrics, processes=None)
    return 0


def _print_wait_profiles(metrics) -> None:
    """Per-stage queue-wait time series for every instrumented program
    on node 0 (multi-node workloads assemble one program per rank; rank
    0 is representative and keeps the report readable)."""
    from repro.obs import (
        instrumented_programs,
        render_stage_series,
        stage_series,
    )

    programs = instrumented_programs(metrics)
    node0 = [p for p in programs if "@" not in p or "@0" in p]
    for program in node0 or programs:
        series = stage_series(metrics, program, bins=24)
        if not series:
            continue
        print(f"\n{program} — when each stage waited for input:")
        print(render_stage_series(series))


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos_plan, run_chaos_csort, run_chaos_dsort

    if args.sorter == "csort" and (args.recover or args.speculate):
        print("error: --recover/--speculate need the dsort recovery "
              "manager; csort chaos covers the transient fault model "
              "only", file=sys.stderr)
        return 2
    recover = None
    if args.recover or args.speculate:
        from repro.recover import RecoverPolicy, SpeculationPolicy

        recover = RecoverPolicy(
            checkpoint=True, backup_runs=True, reassign=True,
            speculation=SpeculationPolicy() if args.speculate else None)

    def make_plan():
        return chaos_plan(args.seed, args.nodes,
                          disk_fault_rate=args.disk_fault_rate,
                          drop_rate=args.drop_rate,
                          straggler_rank=args.straggler,
                          straggler_slowdown=args.straggler_slowdown,
                          permanent_disk_op=args.kill_disk_op,
                          permanent_disk_rank=args.kill_disk_rank)

    def run(trace_path=None):
        if args.sorter == "csort":
            rpn = (args.records_per_node
                   if args.records_per_node is not None else 1728)
            return run_chaos_csort(n_nodes=args.nodes,
                                   records_per_node=rpn,
                                   seed=args.seed, plan=make_plan(),
                                   out_block_records=args.block_records,
                                   trace_path=trace_path)
        rpn = (args.records_per_node
               if args.records_per_node is not None else 2000)
        return run_chaos_dsort(n_nodes=args.nodes,
                               records_per_node=rpn,
                               seed=args.seed, plan=make_plan(),
                               pass_retries=args.pass_retries,
                               block_records=args.block_records,
                               vertical_block_records=max(
                                   1, args.block_records // 2),
                               out_block_records=args.block_records,
                               recover=recover,
                               trace_path=trace_path)

    report = run(trace_path=args.trace_out)
    print(report.describe())
    if args.trace_out:
        print(f"chrome trace written to {args.trace_out}")
    if args.prov_out:
        report.provenance.save(args.prov_out)
        print(f"provenance record written to {args.prov_out} "
              f"(verify with `repro replay {args.prov_out}`)")
    if args.check_determinism:
        again = run()
        identical = (report.output_digest == again.output_digest
                     and report.trace_digest == again.trace_digest
                     and report.metrics_digest == again.metrics_digest
                     and report.fault_events == again.fault_events)
        print("determinism check: "
              + ("PASS (outputs, fault timelines, metrics, and event "
                 "traces identical)" if identical else "FAIL"))
        if not identical:
            return 1
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.jsondoc import write_json
    from repro.tune import adaptive_tune_sort, tune_sort

    common = dict(distribution=args.distribution, n_nodes=args.nodes,
                  n_per_node=args.records_per_node, seed=args.seed)
    if args.method == "adaptive":
        result = adaptive_tune_sort(args.sorter, **common)
    else:
        result = tune_sort(args.sorter, method=args.method,
                           warm_start=args.warm_start or None, **common)
    doc = result.to_json()

    print(f"{args.sorter} on {args.distribution}, {args.nodes} nodes x "
          f"{args.records_per_node} records ({doc['method']} search, "
          f"{doc['evaluations']} evaluated runs):")
    trials = doc.get("trials") or [
        {"config": h["config"], "score": h["score"]}
        for h in doc.get("history", [])]
    for t in trials:
        knobs = " ".join(f"{k}={v}" for k, v in t["config"].items())
        print(f"  {t['score'] * 1e3:9.3f} ms  {knobs}")
    print(f"baseline: {doc['baseline_score'] * 1e3:.3f} ms  "
          + " ".join(f"{k}={v}" for k, v in doc["baseline"].items()))
    print(f"best:     {doc['best_score'] * 1e3:.3f} ms  "
          + " ".join(f"{k}={v}" for k, v in doc["best"].items()))
    print(f"improvement: {doc['improvement']:.1%}")
    if args.out:
        write_json(doc, args.out)
        print(f"wrote {args.out}")
    if args.prov_out:
        from repro.tune import record_best_run

        record = record_best_run(args.sorter, doc["best"],
                                 distribution=args.distribution,
                                 n_nodes=args.nodes,
                                 n_per_node=args.records_per_node,
                                 seed=args.seed)
        record.save(args.prov_out)
        print(f"provenance record of the best config written to "
              f"{args.prov_out} (verify with `repro replay "
              f"{args.prov_out}`)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.jsondoc import write_json
    from repro.prov import ProvenanceRecord, emit_script, replay

    record = ProvenanceRecord.load(args.record)
    if args.script:
        emit_script(record, args.script)
        print(f"wrote standalone replay script: {args.script} "
              f"(run with `PYTHONPATH=src python {args.script}`)")
        return 0
    result = replay(record)
    if args.json:
        write_json(result.to_json(), sys.stdout)
    else:
        print(result.describe())
    return 0 if result.ok else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.jsondoc import write_json
    from repro.plan import plan_sort

    plan = plan_sort(args.sorter, args.nodes, args.records_per_node,
                     record_bytes=args.record_bytes)
    doc = plan.to_json()
    if args.json:
        write_json(doc, sys.stdout)
    elif args.explain:
        print(plan.explain())
    else:
        knobs = " ".join(f"{k}={v}" for k, v in sorted(plan.config.items()))
        print(f"{plan.sorter} plan for {plan.n_nodes} nodes x "
              f"{plan.n_per_node} records ({plan.record_bytes} B): {knobs}")
        print(f"digest {doc['digest'][:16]}…  "
              f"(apply with run_sort(plan=...), or `repro plan --explain` "
              f"for the reasoning)")
    if args.out:
        write_json(doc, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.check.runner import lint_paths, rules_table

    if args.list_rules:
        for line in rules_table():
            print(line)
        return 0
    if not args.files:
        print("repro lint: no files given (or use --list-rules)",
              file=sys.stderr)
        return 2
    return lint_paths(args.files, as_json=args.json, strict=args.strict,
                      effects=args.effects)


def _cmd_sched(args: argparse.Namespace) -> int:
    from repro.jsondoc import read_json
    from repro.prov import canonical_json
    from repro.sched import ArrivalTrace, Quota, run_schedule, synthetic_trace

    tenants = [t for t in args.tenants.split(",") if t]
    if args.trace_in:
        trace = ArrivalTrace.from_json(read_json(args.trace_in))
        tenants = trace.tenants
    else:
        trace = synthetic_trace(
            args.seed, args.jobs, tenants,
            mean_interarrival=args.mean_interarrival,
            kinds=tuple(k for k in args.kinds.split(",") if k))
    report = run_schedule(
        trace,
        n_nodes=args.nodes,
        quotas={t: Quota() for t in tenants},
        policy=args.policy,
        seed=args.seed,
        preempt=args.preempt,
        speculation_slots=args.speculation_slots,
        trace_path=args.trace_out,
        provenance=args.prov_out is not None)
    print(report.describe())
    if args.decisions_out:
        with open(args.decisions_out, "w") as fh:
            for entry in report.decisions:
                fh.write(canonical_json(entry) + "\n")
        print(f"decision log written to {args.decisions_out}")
    if args.trace_out:
        print(f"chrome trace written to {args.trace_out}")
    if args.prov_out:
        assert report.provenance is not None
        report.provenance.save(args.prov_out)
        print(f"provenance record written to {args.prov_out} "
              f"(replay with `python -m repro replay {args.prov_out}`)")
    return 0 if report.failed == 0 else 1


_COMMANDS = {
    "sort": _cmd_sort,
    "lint": _cmd_lint,
    "chaos": _cmd_chaos,
    "figure8": _cmd_figure8,
    "sweep": _cmd_sweep,
    "overlap": _cmd_overlap,
    "distributions": _cmd_distributions,
    "trace": _cmd_trace,
    "plan": _cmd_plan,
    "tune": _cmd_tune,
    "replay": _cmd_replay,
    "sched": _cmd_sched,
    "analyze": _cmd_analyze,
    "apps": _cmd_apps,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        # a refused document or an unreadable path is the user's to fix:
        # one line and argparse's own status; anything else is a bug and
        # keeps its traceback
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
