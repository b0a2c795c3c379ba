"""Twelve recovery runs that reach every recovery-manager wait.

Six scenarios at two seeds: a node crash mid-pass-2 with re-assignment,
the same with speculation, a straggler raced by speculation, the perf
benchmark's ``chaos-recover`` plan, a permanent disk burst that fails a
pass-2 attempt on one rank (whose status wait drains its mailbox), and the
crash again under a 4 KiB mailbox.  Each run is described by what
simulated time can see: digests, makespan, restarts, decision log,
switches and OS threads (see ``tests/faults/test_recover_polls.py``).

Imports nothing newer than the harness, so the same file records
``tests/fixtures/parent_recovery_runs.json`` at any commit::

    PYTHONPATH=<checkout>/src python tests/recovery_matrix.py \\
        > tests/fixtures/parent_recovery_runs.json

(the committed fixture was recorded while every manager wait was still a
``kernel.sleep`` loop, before they became ``Kernel.poll`` calls).
"""

import contextlib
import json

from repro.faults import FaultPlan, chaos_plan, run_chaos_dsort
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sim import VirtualTimeKernel

SEEDS = (7, 42)
#: pass 2 runs from ~0.17 to ~0.38-0.40 simulated s at this size
SIZE = dict(n_nodes=3, records_per_node=1500, block_records=256,
            vertical_block_records=64, out_block_records=256)
SPECULATION = SpeculationPolicy(interval=0.01, patience=2, min_progress=0.02)
REASSIGN = RecoverPolicy(checkpoint=True, backup_runs=True, reassign=True)

#: name -> (fault plan for a seed, recover policy, extra harness args)
SCENARIOS = {
    "crash-reassign": (
        lambda seed: FaultPlan(seed=seed).with_node_crash(rank=1, at=0.3),
        REASSIGN, {}),
    "crash-reassign-speculate": (
        lambda seed: FaultPlan(seed=seed).with_node_crash(rank=1, at=0.3),
        RecoverPolicy(checkpoint=True, backup_runs=True, reassign=True,
                      speculation=SPECULATION), {}),
    "straggler-speculate": (
        lambda seed: FaultPlan(seed=seed).with_straggler(
            rank=1, slowdown=3.0, start=0.17),
        RecoverPolicy(checkpoint=False, backup_runs=True,
                      speculation=SPECULATION), {}),
    "benchmark-chaos": (
        lambda seed: chaos_plan(seed, 3, disk_fault_rate=0.02,
                                drop_rate=0.01, straggler_rank=1),
        RecoverPolicy(checkpoint=True, backup_runs=True,
                      speculation=SPECULATION), {}),
    "disk-burst": (
        lambda seed: FaultPlan(seed=seed).with_disk_faults(
            rate=1.0, rank=1, permanent=True, start=0.28, end=0.30),
        RecoverPolicy(), {}),
    "crash-mailbox-4k": (
        lambda seed: FaultPlan(seed=seed).with_node_crash(rank=1, at=0.3),
        REASSIGN, {"mailbox_capacity_bytes": 4096}),
}

RUNS = [f"{name}@{seed}" for name in SCENARIOS for seed in SEEDS]


@contextlib.contextmanager
def kernels_made():
    """Collect every ``VirtualTimeKernel`` constructed inside the block."""
    made = []
    init = VirtualTimeKernel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    VirtualTimeKernel.__init__ = recording_init
    try:
        yield made
    finally:
        VirtualTimeKernel.__init__ = init


def record(run):
    """Run ``name@seed`` and describe it."""
    name, seed = run.split("@")
    plan, policy, extra = SCENARIOS[name]
    with kernels_made() as made:
        report = run_chaos_dsort(seed=int(seed), plan=plan(int(seed)),
                                 recover=policy, **SIZE, **extra)
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


if __name__ == "__main__":
    print(json.dumps({run: record(run) for run in RUNS}, indent=1,
                     sort_keys=True))
