"""The scenario table: name -> zero-argument function -> flat dict of what
the run shows.

Every pin of "zero simulated-behaviour change" is one scenario here and
one line of ``manifest.jsonl``: recovery runs, the benchmark workloads'
kernel counters, the two-pipeline event list, the hook-site program, the
provenance record of each harness, three quota-bound schedules, each
stage-library program, the document samples, the effect corpus and the
lint text.  A value keeps the granularity it was first pinned at — a
digest stays a (short) digest, a verdict a verdict, a document its text,
an event list a list.

Imports nothing newer than the code under test, so ``record.py`` can run
it against any checkout.  ``SCENARIOS`` at the bottom carries each
scenario's history: where it was first pinned and which fields were
re-recorded since, and why.
"""

import collections
import contextlib
import functools
import glob
import hashlib
import io
import os
import random
import re
import runpy
import sys
import tempfile
from unittest import mock

import numpy as np

from repro.apps.groupby import GroupByConfig, KeyValueSchema, run_groupby
from repro.bench.harness import (
    benchmark_hardware,
    default_dsort_config,
    run_sort,
)
from repro.check import dataflow, lint_program
from repro.cli import main as repro_main
from repro.core import FGProgram, Stage, add_fork_join
from repro.errors import PipelineFailed
from repro.faults import (
    FaultPlan,
    chaos_plan,
    run_chaos_csort,
    run_chaos_dsort,
)
from repro.faults.retry import RetryPolicy
from repro.jsondoc import to_doc
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.plan import plan_sort
from repro.prov import (
    ProvenanceRecord,
    canonical_json,
    digest_json,
    metrics_digest,
    observed_cluster,
    trace_digest,
)
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sched import (
    Arrival,
    ArrivalTrace,
    JobSpec,
    Quota,
    run_schedule,
    synthetic_trace,
)
from repro.sim import Channel, Resource, Tracer, VirtualTimeKernel
from repro.sorting.dsort import run_nowsort
from repro.workloads.generator import generate_input

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCHEMA = RecordSchema.paper_16()
#: hex digits kept of a sha256 where a pin was first taken short (64
#: bits: plenty to catch a change, short enough to read a failure)
HEX = 16
#: read-heavy merge geometry, as in tests/faults/test_recover_speculation
GEOM = dict(block_records=256, vertical_block_records=64,
            out_block_records=256)


def _short(digests: dict) -> dict:
    return {name: value[:HEX] for name, value in sorted(digests.items())}


def _flat(**groups) -> dict:
    """One flat dict: ``group.key`` for each key of a dict group, the
    value itself for any other group; fields keep this order, so the
    first one a failure names is the one listed first."""
    out = {}
    for group, value in groups.items():
        out.update({f"{group}.{key}": v for key, v in value.items()}
                   if isinstance(value, dict) else {group: value})
    return out


@contextlib.contextmanager
def kernels_made():
    """Collect every ``VirtualTimeKernel`` constructed inside the block."""
    made = []
    init = VirtualTimeKernel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    with mock.patch.object(VirtualTimeKernel, "__init__", recording_init):
        yield made


# -- recovery runs that reach every recovery-manager wait ------------------
#
# Six plans at two seeds: a node crash mid-pass-2 with re-assignment, the
# same with speculation, a straggler raced by speculation, the perf
# benchmark's ``chaos-recover`` plan, a permanent disk burst that fails a
# pass-2 attempt on one rank (whose status wait drains its mailbox), and
# the crash again under a 4 KiB mailbox (tests/faults/test_recover_polls.py
# runs them under spies).

RECOVERY_SEEDS = (7, 42)
#: pass 2 runs from ~0.17 to ~0.38-0.40 simulated s at this size
RECOVERY_SIZE = dict(n_nodes=3, records_per_node=1500, **GEOM)
SPECULATION = SpeculationPolicy(interval=0.01, patience=2, min_progress=0.02)
REASSIGN = RecoverPolicy(checkpoint=True, backup_runs=True, reassign=True)
#: the ``chaos-recover`` benchmark workload's policy
CHAOS_RECOVER = RecoverPolicy(checkpoint=True, backup_runs=True,
                              speculation=SPECULATION)


def _crash(seed):
    return FaultPlan(seed=seed).with_node_crash(rank=1, at=0.3)


#: name -> (fault plan for a seed, recover policy, extra harness args)
RECOVERY_PLANS = {
    "crash-reassign": (_crash, REASSIGN, {}),
    "crash-reassign-speculate": (
        _crash, RecoverPolicy(checkpoint=True, backup_runs=True, reassign=True,
                      speculation=SPECULATION), {}),
    "straggler-speculate": (
        lambda seed: FaultPlan(seed=seed).with_straggler(
            rank=1, slowdown=3.0, start=0.17),
        RecoverPolicy(checkpoint=False, backup_runs=True,
                      speculation=SPECULATION), {}),
    "benchmark-chaos": (
        lambda seed: chaos_plan(seed, 3, disk_fault_rate=0.02,
                                drop_rate=0.01, straggler_rank=1),
        CHAOS_RECOVER, {}),
    "disk-burst": (
        lambda seed: FaultPlan(seed=seed).with_disk_faults(
            rate=1.0, rank=1, permanent=True, start=0.28, end=0.30),
        RecoverPolicy(), {}),
    "crash-mailbox-4k": (_crash, REASSIGN, {"mailbox_capacity_bytes": 4096}),
}

RECOVERY_RUNS = [f"{name}@{seed}" for name in RECOVERY_PLANS
                 for seed in RECOVERY_SEEDS]


def _recovery(name, seed):
    """One recovery run's digests, makespan, restarts, decision log,
    switches and OS threads."""
    plan, policy, extra = RECOVERY_PLANS[name]
    with kernels_made() as made:
        report = run_chaos_dsort(seed=seed, plan=plan(seed),
                                 recover=policy, **RECOVERY_SIZE, **extra)
    (kernel,) = made
    assert report.verified
    return {"trace_digest": report.trace_digest,
            "metrics_digest": report.metrics_digest,
            "output_digest": report.output_digest,
            "elapsed": repr(report.elapsed),
            "pass_restarts": report.pass_restarts,
            "decisions": report.recovery_decisions,
            "switches": kernel.switches,
            "threads_started": kernel.threads_started}


# -- the benchmark workloads' kernel counters ------------------------------

def _perf_workload(name):
    """Switches that did not hand the token to another process, the false
    poll ticks and holders' sleeps the scheduler ran itself, OS threads;
    and which kernel counters reached a metrics snapshot (none may: they
    are plain attributes)."""
    workloads = runpy.run_path(os.path.join(
        REPO, "benchmarks", "perf", "workloads.py"))["WORKLOADS"]
    with kernels_made() as made:
        workloads[name](31, False, False)
    (kernel,) = made
    snapshot = ({} if kernel.metrics is None
                else kernel.metrics.snapshot())
    # ``sched.speculation.granted`` is the job scheduler's own count
    leaked = [metric for kind in ("counters", "gauges", "histograms")
              for metric in snapshot.get(kind, ())
              if "handoff" in metric or "polled" in metric
              or (metric.startswith("kernel.") and "granted" in metric)]
    return {"switches_minus_handoffs": kernel.switches - kernel.handoffs,
            "polled": kernel.polled,
            "granted": kernel.granted,
            "threads_started": kernel.threads_started,
            "kernel_counters_in_metrics": leaked}


# -- two pipelines sharing a disk arm and a one-slot wire ------------------

ROUNDS = 4


def _two_pipeline():
    """A send and a receive pipeline sharing a disk arm and a one-slot
    wire, then the driver alone on the timeline: every event, the
    switch count and the clock."""
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    prog = FGProgram(kernel, name="fg")
    wire = Channel(kernel, capacity=1, name="wire")
    arm = Resource(kernel, name="arm")

    def read(ctx, buf):
        with arm.request():
            kernel.sleep(0.003)
        return buf

    def send(ctx, buf):
        kernel.sleep(0.001)
        wire.put(buf.round)
        return buf

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        for _ in range(ROUNDS):
            wire.get()
            buf = ctx.accept()
            with arm.request():
                kernel.sleep(0.002)
            ctx.convey(buf)
        ctx.convey_caboose(pipeline)

    def save(ctx, buf):
        kernel.sleep(0.004)
        return buf

    prog.add_pipeline("send", [Stage.map("read", read),
                               Stage.map("send", send)],
                      nbuffers=2, buffer_bytes=8, rounds=ROUNDS)
    prog.add_pipeline("recv", [Stage.source_driven("receive", receive),
                               Stage.map("save", save)],
                      nbuffers=2, buffer_bytes=8)

    def driver():
        prog.run()
        for _ in range(3):
            kernel.sleep(0.5)

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert 0 < kernel.handoffs < kernel.switches
    return {"events": [[e.time, e.process, e.kind, e.detail]
                       for e in tracer.events],
            "switches": kernel.switches,
            "now": kernel.now()}


# -- every runner kind in one program ---------------------------------------
#
# map, full-control, intersecting, virtual group (family source/sink),
# replicas + sequencer (with a dropped buffer), fork-join, member EOS with
# stragglers, and a poisoned pipeline: every buffer-lifecycle hook site in
# ``repro.core``.  Per-stage counts are (accepts, conveys): map and
# full-control stages count the caboose as an accept; replicas, the
# sequencer and virtual-group members do not; the sequencer counts the
# dropped round's skip token as an accept.

def _passthrough(ctx, buf):
    return buf


def _full_loop(ctx):
    while True:
        buf = ctx.accept()
        if buf.is_caboose:
            ctx.forward(buf)
            return
        ctx.kernel.sleep(0.002)
        ctx.convey(buf)


def _hook_program(kernel, **detectors):
    prog = FGProgram(kernel, name="hooks", **detectors)

    # map -> full-control -> replicated (x2, drops round 3) -> map
    def work(ctx, buf):
        # earlier rounds take longer, so completions arrive out of
        # ticket order and the sequencer has envelopes to hold
        ctx.kernel.sleep(0.01 * (6 - buf.round))
        return None if buf.round == 3 else buf

    prog.add_pipeline(
        "main", [Stage.map("stamp", _passthrough),
                 Stage.source_driven("pump", _full_loop),
                 Stage.map("work", work),
                 Stage.map("tail", _passthrough)],
        nbuffers=3, buffer_bytes=8, rounds=6, replicas={"work": 2})

    # one full-control stage intersecting two pipelines
    def merge(ctx):
        left, right = ctx.pipelines
        for _ in range(3):
            a = ctx.accept(left)
            b = ctx.accept(right)
            ctx.kernel.sleep(0.003)
            ctx.convey(a)
            ctx.convey(b)
        ctx.forward(ctx.accept(left))
        ctx.forward(ctx.accept(right))

    merge_stage = Stage.source_driven("merge", merge)
    for side in ("left", "right"):
        prog.add_pipeline(
            side, [Stage.map(f"{side}.in", _passthrough), merge_stage],
            nbuffers=2, buffer_bytes=8, rounds=3)

    # a virtual group over two pipelines (one family); v1 has no round
    # count, so its member declares EOS and later buffers are stragglers
    def fixed(ctx, buf):
        ctx.kernel.sleep(0.004)
        return buf

    def until_two(ctx, buf):
        if buf.round == 2:
            ctx.convey_caboose()
            return None
        return buf

    prog.add_pipeline(
        "v0", [Stage.map("acq0", fixed, virtual=True, virtual_group="acq"),
               Stage.map("v0.out", _passthrough)],
        nbuffers=2, buffer_bytes=8, rounds=4)
    prog.add_pipeline(
        "v1", [Stage.map("acq1", until_two, virtual=True,
                         virtual_group="acq")],
        nbuffers=3, buffer_bytes=8, rounds=None)

    add_fork_join(
        prog, "fj", pre=[Stage.map("fj.pre", _passthrough)],
        branches={"even": [Stage.map("fj.even", _passthrough)],
                  "odd": [Stage.map("fj.odd", fixed)]},
        post=[Stage.map("fj.post", _passthrough)],
        route=lambda buf: "even" if buf.round % 2 == 0 else "odd",
        nbuffers=2, buffer_bytes=8, rounds=4)

    # a failing stage poisons only its own pipeline
    def boom(ctx, buf):
        if buf.round == 1:
            raise RuntimeError("boom")
        return buf

    prog.add_pipeline(
        "bad", [Stage.map("bad.in", _passthrough), Stage.map("boom", boom),
                Stage.map("bad.out", _passthrough)],
        nbuffers=2, buffer_bytes=8, rounds=5)
    return prog


def hook_sites(**detectors):
    """Run the hook-site program: (its flat observables, the kernel)."""
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    kernel.enable_metrics()
    prog = _hook_program(kernel, **detectors)
    failures = []

    def driver():
        try:
            prog.run()
        except PipelineFailed as exc:
            failures.extend((f.pipeline, f.stage) for f in exc.failures)

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert failures == [("bad", "boom")]
    counts = {name: [stats.accepts, stats.conveys]
              for name, stats in prog.stage_stats().items()}
    (seq,) = [replicas.seq_stage for replicas in prog.replica_sets()]
    counts[seq.name] = [seq.stats.accepts, seq.stats.conveys]
    return _flat(trace_digest=trace_digest(tracer),
                 metrics_digest=metrics_digest(kernel.metrics.snapshot()),
                 counts=counts), kernel


# -- the provenance record each harness assembles ---------------------------
#
# Each harness's whole record at a small fixed shape: the sha256 (first 16
# hex digits) of its canonical JSON minus the three fields that name the
# source tree or the wall clock, and the length of each decision stream
# it carries.

def _record(make):
    def observe():
        record = make()
        doc = record.to_json()
        # what differs between two recordings of one run: tree, clock
        for field in ("code_fingerprint", "repro_version", "created"):
            del doc[field]
        return {"record": digest_json(doc)[:HEX],
                "streams": {source: len(entries) for source, entries
                            in record.decisions.items()}}
    return observe


def _sort_record(sorter, **kwargs):
    return lambda: run_sort(sorter, "uniform", SCHEMA, n_nodes=2,
                            n_per_node=2048, provenance=True,
                            **kwargs).provenance


def _chaos_recover_record():
    """The ``chaos-recover`` benchmark workload's shape, at 3 x 600."""
    return run_chaos_dsort(
        n_nodes=3, records_per_node=600, seed=5,
        plan=chaos_plan(5, 3, disk_fault_rate=0.02, drop_rate=0.01,
                        straggler_rank=1),
        recover=CHAOS_RECOVER, **GEOM).provenance


def _sched_preempted_record():
    """A low-priority checkpointing dsort job, preempted once by a
    ``blocks`` job and resumed; a second ``blocks`` job queues behind."""
    trace = ArrivalTrace(arrivals=(
        Arrival(0.0, JobSpec("batch", "dsort", n_nodes=2, priority=0,
                             params={"recover": True,
                                     "records_per_node": 2048})),
        Arrival(0.02, JobSpec("online", "blocks", n_nodes=2, priority=5,
                              params={"blocks": 2})),
        Arrival(0.03, JobSpec("online", "blocks", n_nodes=1, priority=5,
                              params={"blocks": 2}))))
    report = run_schedule(trace, n_nodes=2, policy="priority",
                          preempt=True, seed=3,
                          quotas={"batch": Quota(), "online": Quota()})
    assert [job.preemptions for job in report.jobs] == [1, 0, 0]
    return report.provenance


# -- quota admission at its boundaries --------------------------------------
#
# Three tenants on eight nodes, each held by one bound: ``inflight`` by
# one running job, ``nodes`` by three nodes, ``bytes`` by 150 000 buffer
# bytes (a 3-node dsort job demands 122 880).  24 jobs of all four kinds,
# dealt round-robin over the tenants, on 1-3 nodes (csort and groupby on
# 1-2: a 3-node csort has no columnsort shape, a 3-node groupby demands
# more than ``bytes`` may hold).  Every bound refuses jobs that free
# nodes could have taken under each policy.  No preemption.

QUOTA_BOUNDS = {"inflight": Quota(max_inflight=1),
                "nodes": Quota(max_nodes=3),
                "bytes": Quota(max_nodes=6, max_buffer_bytes=150_000)}
QUOTA_KINDS = ("blocks", "dsort", "csort", "groupby")
QUOTA_PARAMS = {"blocks": {"blocks": 3, "compute": 0.004,
                           "block_bytes": 2048},
                "dsort": {"records_per_node": 512},
                "csort": {"records_per_node": 512},
                "groupby": {"records_per_node": 512}}


def _quota_bounds(policy, seed):
    rng = random.Random(seed)
    tenants = sorted(QUOTA_BOUNDS)
    arrivals, now = [], 0.0
    for i in range(24):
        now += rng.expovariate(1 / 0.004)
        kind = QUOTA_KINDS[(i // 3) % 4]
        spec = JobSpec(tenants[i % 3], kind, rng.choice(
            (1, 2) if kind in ("csort", "groupby") else (1, 2, 3)),
            params=dict(QUOTA_PARAMS[kind]), priority=rng.choice((0, 1, 2)))
        arrivals.append(Arrival(round(now, 6), spec))
    report = run_schedule(ArrivalTrace(arrivals=tuple(arrivals)), n_nodes=8,
                          quotas=QUOTA_BOUNDS, policy=policy, seed=seed,
                          provenance=False)
    assert report.done == 24
    return _flat(decision_digest=report.decision_digest[:HEX],
                 metrics_digest=metrics_digest(report.metrics)[:HEX],
                 makespan=repr(report.makespan), tenants=report.tenants)


# -- every program assembled from repro.sorting.stages ----------------------
#
# Each program not already pinned at benchmark scale by the committed
# goldens, at a small fixed shape: event timeline, metrics, output bytes
# and one stage-graph fingerprint per program name (a stage that
# reclassifies names its program here).  Stage graphs come first: a
# reclassified stage explains every digest.

def _sort_program(sorter, n_nodes=4, n_per_node=2048, tune=None):
    def observe():
        run = run_sort(sorter, "uniform", SCHEMA, n_nodes=n_nodes,
                       n_per_node=n_per_node, seed=1, tune=tune,
                       provenance=True)
        record = run.provenance
        return _flat(
            stage_graphs=_short(record.stage_graphs),
            phases={k: repr(v) for k, v in run.phase_times.items()},
            digests=_short(record.digests))
    return observe


def _local_outputs(capture, cluster, reports, name, schema):
    """What a program with node-local (unstriped) output is pinned by."""
    output = hashlib.sha256()
    for node in cluster.nodes:
        rf = RecordFile(node.disk, name, schema)
        output.update(rf.peek(0, rf.n_records).tobytes())
    kernel = cluster.kernel
    return _flat(
        stage_graphs=_short(capture.stage_graphs),
        phases={"pass1": repr(reports[0].pass1_time),
                "pass2": repr(reports[0].pass2_time)},
        digests=_short({
            "output": output.hexdigest(),
            "metrics": metrics_digest(kernel.metrics.snapshot()),
            "trace": trace_digest(kernel.tracer)}))


def _nowsort_program():
    """4 x 4096 uniform records at the harness's default geometry: a
    shape where a run's head block drains exactly as an output buffer
    fills, which is when the order of "take the next output buffer" and
    "refill" shows in the event stream."""
    cluster, capture = observed_cluster(4, capture=True,
                                        hardware=benchmark_hardware())
    generate_input(cluster, SCHEMA, 4096, "uniform", seed=1)
    config = default_dsort_config(4 * 4096, 4)
    reports = cluster.run(run_nowsort, SCHEMA, config)
    return _local_outputs(capture, cluster, reports, config.output_file,
                          SCHEMA)


def _groupby_program():
    """2 nodes, 300 keys over 2 x 4000 records."""
    schema = KeyValueSchema()
    cluster, capture = observed_cluster(2, capture=True,
                                        hardware=benchmark_hardware())
    rng = np.random.default_rng(5)
    for node in cluster.nodes:
        keys = rng.integers(0, 300, size=4000, dtype=np.uint64)
        values = rng.integers(0, 1000, size=4000, dtype=np.uint64)
        RecordFile(node.disk, "kv-input", schema).poke(
            0, schema.make(keys, values))
    reports = cluster.run(run_groupby, GroupByConfig(
        block_records=256, vertical_block_records=32,
        out_block_records=48))
    return _local_outputs(capture, cluster, reports, "kv-groups", schema)


#: simulated seconds of the fault-free recovering run at GEOM
CLEAN_ELAPSED = 0.481


def _chaos_program(report):
    kinds = collections.Counter(d["kind"] for d in report.recovery_decisions)
    return _flat(
        stage_graphs=_short(report.provenance.stage_graphs),
        elapsed=repr(report.elapsed),
        pass_restarts=report.pass_restarts,
        decisions=dict(sorted(kinds.items())),
        digests=_short({"output": report.output_digest,
                        "metrics": report.metrics_digest,
                        "trace": report.trace_digest}))


#: name -> (fault plan, speculation) of a seed-42 recovering dsort
CHAOS_DSORT = {
    # every recovery feature at once: rank 1 straggles from mid-run (a
    # backup merge races it), and a burst of permanent disk faults on
    # rank 0 forces a pass-1 restart that resumes from the journals
    "chaos-dsort-speculate": (lambda: FaultPlan(seed=42).with_straggler(
        rank=1, slowdown=3.0, start=0.5 * CLEAN_ELAPSED).with_disk_faults(
        rate=1.0, rank=0, permanent=True, start=0.3 * CLEAN_ELAPSED,
        end=0.3 * CLEAN_ELAPSED + 0.01), SpeculationPolicy()),
    # a pass-2 restart: the retried merge chain resumes mid-run from the
    # merge log (per-run start offsets, ``start_piece > 0``)
    "chaos-dsort-resume": (lambda: FaultPlan(seed=42).with_disk_faults(
        rate=1.0, rank=0, permanent=True, start=0.75 * CLEAN_ELAPSED,
        end=0.75 * CLEAN_ELAPSED + 0.01), None),
    # a node crash mid-pass-2: the buddy merges the dead rank's range
    # from its backup runs (an ``adopted`` chain)
    "chaos-dsort-adopt": (lambda: FaultPlan(seed=42).with_node_crash(
        rank=1, at=0.75 * CLEAN_ELAPSED), None),
}


def _chaos_dsort_program(name):
    plan, speculation = CHAOS_DSORT[name]
    return _chaos_program(run_chaos_dsort(
        seed=42, plan=plan(), recover=RecoverPolicy(
            checkpoint=True, backup_runs=True, reassign=True,
            speculation=speculation), **GEOM))


def _chaos_csort_program():
    return _chaos_program(run_chaos_csort(seed=77, records_per_node=432,
                                          out_block_records=32))


# -- one sample of every document class --------------------------------------

def samples():
    """name -> one instance of each document class."""
    fault_plan = (FaultPlan(seed=7)
                  .with_disk_faults(rate=0.1, start=1.0, end=2.0)
                  .with_disk_fault_at(rank=1, op_index=5)
                  .with_message_drops(rate=0.05, src=0, dst=2)
                  .with_nic_degradation(factor=2.0, rank=1)
                  .with_straggler(rank=2, slowdown=4.0)
                  .with_node_crash(rank=0, at=10.0))
    trace = synthetic_trace(3, 4, ("alpha", "beta"), kinds=("blocks", "dsort"),
                            params={"blocks": {"blocks": 2},
                                    "dsort": {"records_per_node": 600}})
    plan = plan_sort("dsort", 4, 4096)
    recover = RecoverPolicy(
        backup_runs=True, reassign=True,
        speculation=SpeculationPolicy(interval=0.01, patience=3))
    return {
        "Quota": Quota(max_nodes=2, weight=2.5),
        "JobSpec": JobSpec(tenant="alpha", kind="blocks", n_nodes=2,
                           params={"blocks": 2}, priority=1),
        "ArrivalTrace": trace,
        "SpeculationPolicy": SpeculationPolicy(lag_ratio=0.25),
        "RecoverPolicy": recover,
        "RecoverPolicy.plain": RecoverPolicy(checkpoint=False),
        "RetryPolicy": RetryPolicy(max_attempts=3, op_timeout=0.5),
        "Plan": plan,
        "FaultPlan": fault_plan,
        "ProvenanceRecord": ProvenanceRecord(
            kind="chaos_dsort",
            args={"n_nodes": 2, "seed": 7, "retry": None,
                  "recover": recover.to_json(), "plan": plan.to_json(),
                  "trace": trace.to_json()},
            seeds={"workload": 7, "fault_plan": 7},
            fault_plan=fault_plan.to_json(),
            decisions={"fault": [{"time": 0.25, "kind": "disk",
                                  "site": "disk.1", "rank": 1,
                                  "detail": "read op #3 (512 B)"}],
                       "recover": [{"time": 0.5, "kind": "resume",
                                    "rank": 0, "detail": "x"}]},
            stage_graphs={"dsort-pass1@0": "ab" * 32},
            digests={"output": "cd" * 32, "metrics": "", "trace": "ef" * 32},
            repro_version="1.0.0", code_fingerprint="12" * 32),
    }


def document(obj):
    """What the code under test writes for ``obj`` (a ``RetryPolicy`` is
    chaos.py's ``args`` entry, spelt by ``to_doc``)."""
    to_json = getattr(obj, "to_json", None)
    return to_json() if to_json else to_doc(obj)


def _document(name):
    return {"document": canonical_json(document(samples()[name]))}


# -- the examples: their lint text and their stage functions -------------
#
# One run of ``repro lint --strict --effects`` over the examples and the
# three check fixtures gives the lint text — every finding, every stage's
# parallel-safety verdict, each example's own simulated output — and,
# with both sorters run after it, the effect corpus: every stage function
# of ``examples/``, both sorters and ``repro.apps``
# (``examples/beyond_sorting.py`` runs transpose and group-by), captured
# alive as their programs start.  Each one's ``Effects`` are written with
# every ``id()`` replaced by its first-appearance index over the corpus
# (0 stays 0: an unresolved cell), so two stages that share one object
# still share one index.

EXAMPLES = sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
CHECK_FIXTURES = sorted(glob.glob(os.path.join(
    REPO, "tests", "check", "fixtures", "*.py")))
#: real_files.py's temp-dir and wall-clock lines differ run to run
UNSTABLE = re.compile(r"^  data: .* under |^  wall: .*real threads")


@functools.cache
def examples_run():
    """``(lint text, lint exit status, [(fn, style)], [hook])``: the
    stage functions and failure hooks the examples and both sorters
    start, in start order."""
    captured, hooks = {}, {}
    original = FGProgram.start

    def start(self):
        # lint hands each file it runs its own sys.argv
        if sys.argv[0] not in CHECK_FIXTURES:
            for p in self.pipelines:
                for s in p.stages:
                    if s.fn is not None:
                        captured.setdefault(id(s.fn), (s.fn, s.style))
            if self.on_pipeline_failure is not None:
                hooks.setdefault(id(self.on_pipeline_failure),
                                 self.on_pipeline_failure)
        return original(self)

    lint, cwd = io.StringIO(), os.getcwd()
    with mock.patch.object(FGProgram, "start", start), \
            tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # trace_pipeline.py writes into the cwd
        try:
            with contextlib.redirect_stdout(lint):
                status = repro_main(["lint", "--strict", "--effects",
                                     *EXAMPLES, *CHECK_FIXTURES])
            with contextlib.redirect_stdout(io.StringIO()):
                for sorter in ("dsort", "csort"):
                    run_sort(sorter, "uniform", RecordSchema.paper_16(),
                             n_nodes=2, n_per_node=2048, seed=3)
        finally:
            os.chdir(cwd)
    return (lint.getvalue(), status, list(captured.values()),
            list(hooks.values()))


def corpus():
    """``([(fn, style)], [hook])`` of the examples and both sorters."""
    return examples_run()[2:]


def canonical(stage_functions):
    """One JSON-able entry per stage function: its effects with ids
    renumbered by first appearance (cells visited in label order)."""
    index = {0: 0}

    def cells(group):
        out = []
        for c in sorted(group, key=lambda c: (c.label, c.key or "")):
            index.setdefault(c.obj_id, len(index))
            out.append([index[c.obj_id], c.key, c.label])
        return out

    entries = []
    for fn, style in stage_functions:
        eff = dataflow.stage_effects(fn, style)
        entries.append({
            "fn": getattr(fn, "__qualname__", type(fn).__name__),
            "style": style,
            "reads": cells(eff.reads),
            "writes": cells(eff.writes),
            "unresolved_writes": list(eff.unresolved_writes),
            "buffer_escapes": list(eff.buffer_escapes),
            "classification": eff.classification,
            "fg109": _fg109(fn) if style == "map" else None,
        })
    return entries


def _fg109(fn):
    """Does ``lint_program`` report FG109 on a two-replica pipeline of
    the map-style stage function ``fn``?"""
    prog = FGProgram(VirtualTimeKernel(), name="fg109")
    prog.add_pipeline("p", [Stage.map("work", fn),
                            Stage.map("sink", lambda ctx, buf: buf)],
                      nbuffers=4, buffer_bytes=8, rounds=4,
                      replicas={"work": 2})
    return any(f.rule_id == "FG109" for f in lint_program(prog))


def _effects():
    entries = canonical(corpus()[0])
    # not vacuous: every example ran, and the corpus has readers and
    # writers of shared state
    assert len(EXAMPLES) >= 8 and len(entries) > 100
    assert {e["classification"] for e in entries} >= {
        dataflow.READ_SHARED, dataflow.WRITE_SHARED}
    return {"stage_effects": entries}


def _lint():
    """The lint text, its exit status as a last ``exit N`` line, paths
    relative to the repository."""
    text, status = examples_run()[:2]
    lines = text.replace(REPO + os.sep, "").splitlines()
    return {"lines": [line for line in lines if not UNSTABLE.match(line)]
            + [f"exit {status}"]}


# -- the table -------------------------------------------------------------
#
# The manifest was recorded at f0a1865, the commit before the old pins
# moved here, and every line equals the pin it replaced; each comment
# says where that pin was first taken and which fields moved since.

SCENARIOS = {
    # Recorded at 338d417's parent (PR 28), while every recovery-manager
    # wait was still a ``kernel.sleep`` loop; unchanged since.
    **{f"recovery/{name}@{seed}": functools.partial(_recovery, name, seed)
       for name in RECOVERY_PLANS for seed in RECOVERY_SEEDS},
    # First pinned at PR 21 (da1c643), which made a self hand-off keep
    # the token; PR 28 (338d417) added the false poll ticks the scheduler
    # runs itself and PR 29 (f6ccdf1) its hold grants, each pinning the
    # counter it introduced.
    **{f"perf-workload/{name}@31": functools.partial(_perf_workload, name)
       for name in ("dsort-uniform", "csort-uniform", "groupby-dup",
                    "sched-mixed", "chaos-recover")},
    # Recorded at PR 21's parent (da1c643~), before the raw-lock hand-off.
    "handoff/two-pipeline": _two_pipeline,
    # First pinned at PR 16 (81ddeec); re-recorded at b8c8be1 from the
    # same program minus its mid-run pool growth and retirement, at the
    # commit before in-run pool mutation was deleted (PR 32).
    "hook-sites": lambda: hook_sites(sanitize=False, race_detect=False)[0],
    # Recorded at PR 20's parent (1e8dd2a), before the fold into one
    # ``ProvenanceCapture.record``.  Every record/* line re-recorded on
    # top of 59a47df, when the three decision trails became one
    # ``decisions`` field read from the owners' logs (record version 2):
    # ``trails`` became ``streams``, each the parent's nonzero trail
    # length, and ``record`` moved with the format and with the stage
    # graphs (below); every output, metrics and trace digest is the
    # parent's.  ``record`` re-recorded again on top of 8d04c5a with the
    # stage graphs, when they lost ``parallel_safety`` (below).  Every
    # ``record`` re-recorded on top of 22f250a, when the fault injector's
    # log joined ``decisions`` (record version 3): the two chaos records
    # gained a ``fault`` stream, and every other field of every record,
    # each digest included, is 8c3d482's.
    "record/sort-dsort": _record(_sort_record("dsort")),
    "record/sort-csort": _record(_sort_record("csort")),
    "record/sort-nowsort": _record(_sort_record("nowsort")),
    # ``record`` re-recorded at PR 22 (3239640): the ``fuse`` flag left
    # the plan document, so ``args.plan`` lost that key and the plan
    # digest moved, and with it the four stage graphs it stamps; every
    # other line, output, metrics and trace digests included, is
    # 1e8dd2a's.
    "record/sort-dsort-planned-tuned": _record(_sort_record(
        "dsort", plan=True, tune={"nbuffers": 6})),
    "record/chaos-dsort-recover": _record(_chaos_recover_record),
    "record/chaos-csort": _record(lambda: run_chaos_csort().provenance),
    "record/sched-preempted-dsort": _record(_sched_preempted_record),
    # Recorded at dba080c, the commit before quota admission read one
    # tally per tenant per scheduling pass.
    **{f"sched/quota-bounds/{policy}@5": functools.partial(
        _quota_bounds, policy, 5) for policy in ("fifo", "fair", "priority")},
    # Every stage-library/* line was recorded at 1b83289, the commit
    # before PR 19 rebuilt every program from one stage library, but for
    # the fields re-recorded since, marked below.  Every
    # ``stage_graphs.*`` key re-recorded on top of 59a47df: the graph
    # IR's canonical form dropped its constant ``pool_grown`` /
    # ``pool_retired`` keys, so every fingerprint moved; no phase or
    # digest did.  Every ``stage_graphs.*`` key re-recorded again on top
    # of 8d04c5a: the canonical form dropped each stage's
    # ``parallel_safety`` (the IR became structure only), so every
    # fingerprint moved; no phase or digest did.
    "stage-library/csort4": _sort_program("csort4"),
    # ``stage_graphs`` re-recorded at 0afcf52 (PR 31): both ``exchange``
    # stages tell their source they are done through a one-shot ``Flag``
    # instead of a shared dict FGRace found unordered with the source's
    # polls, so ``exchange`` went ``write_shared`` -> ``read_shared`` in
    # both passes; ``phases`` and every digest are 1b83289's.
    "stage-library/dsort-linear": _sort_program(
        "dsort-linear", n_nodes=3, n_per_node=1728),
    # ``digests.metrics`` and ``digests.trace`` re-recorded at PR 19
    # (1e8dd2a; 'a514941646b7afcd' / 'cd0fd3ea03b086d4' before): the merge
    # stage used to take an output buffer before it knew a record was left
    # (and stranded one whenever a partition was a multiple of the output
    # block); it now takes it later, like every other merge, which moves
    # events but not one phase time.
    "stage-library/nowsort": _nowsort_program,
    "stage-library/dsort-sort-replicas-2": _sort_program(
        "dsort", tune={"sort_replicas": 2}),
    # ``stage_graphs.groupby-p1@*`` re-recorded at PR 19 (1e8dd2a;
    # '33d619a78a652f2d' / '7c29b80c20085dd3' before): ``route`` records
    # that its end markers went out, for the failure hook that sends them
    # when ``route`` dies, a shared write, so its ``parallel_safety`` went
    # ``read_shared`` -> ``write_shared``; every digest is 1b83289's.
    "stage-library/groupby": _groupby_program,
    **{f"stage-library/{name}": functools.partial(_chaos_dsort_program,
                                                  name)
       for name in CHAOS_DSORT},
    "stage-library/chaos-csort": _chaos_csort_program,
    # Recorded at PR 24's parent (03d73ea), before one reader for
    # documents from outside; ``documents/ProvenanceRecord``
    # re-recorded on top of 59a47df for the record's version-2 format,
    # and on top of 22f250a for version 3, its sample given a ``fault``
    # stream.
    **{f"documents/{name}": functools.partial(_document, name)
       for name in samples()},
    # Recorded at cbcaa35, the last commit whose effect scan ran once per
    # closure (PR 25); re-recorded at fcffbc6 (PR 31) with cbcaa35's scan
    # over that tree: the five read-stage functions read with
    # ``rf.read_into`` and ``schema.dtype``, so only their ``reads``
    # (and later ids) moved, every classification stayed.  Re-recorded
    # at 519a9c0 with that commit's ``src/``: each entry's
    # ``evidence`` (the old FG109 walk's strings) became ``fg109``, the
    # rule's verdict on a two-replica pipeline of the function, so the
    # same line pins FG109 across a change of how it collects evidence.
    "effects/examples-and-sorters": _effects,
    # Recorded at PR 25's parent under CPython 3.11, while the effect
    # scan still ran once per closure; unchanged since.
    "lint/examples-and-fixtures": _lint,
}
