"""FGSan and FGRace overhead: host wall-clock cost of both detectors.

Neither detector consumes virtual time by design — FGSan's ownership
checks and FGRace's vector-clock joins and effect replays happen between
blocking points — so the *simulated* elapsed time of a checked run is
identical to the plain run, asserted below for each.  What they cost is
host CPU: FGSan an ownership check on every ``Buffer.data`` access and a
state transition on every lifecycle event, FGRace a clock snapshot/join
on every channel operation plus one effect-cell replay per stage access.
This benchmark races three arms over a full dsort run — plain, FGSan
(`REPRO_SANITIZE=1`), and FGRace (`REPRO_RACE=1`) — interleaving
repetitions so machine drift hits all arms equally.  The acceptance
bounds (CI-gated): FGRace stays within 2x of the plain run, FGSan within
an order of magnitude.
"""

import os
import statistics
import time

from conftest import save_result

from repro.bench import render_table
from repro.bench.harness import run_sort
from repro.cluster import HardwareModel
from repro.pdm.records import RecordSchema

NODES = 2
RECORDS = 32768
REPS = 5

ARMS = {
    "plain": {},
    "REPRO_SANITIZE=1": {"REPRO_SANITIZE": "1"},
    "REPRO_RACE=1": {"REPRO_RACE": "1"},
}


def _hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


def _timed_run(env):
    previous = {key: os.environ.get(key)
                for key in ("REPRO_SANITIZE", "REPRO_RACE")}
    os.environ.update({"REPRO_SANITIZE": "0", "REPRO_RACE": "0"})
    os.environ.update(env)
    try:
        t0 = time.perf_counter()
        run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                       n_nodes=NODES, n_per_node=RECORDS, hardware=_hw())
        wall = time.perf_counter() - t0
    finally:
        for key, value in previous.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    return wall, run


def race_overhead_experiment():
    walls = {arm: [] for arm in ARMS}
    runs = {}
    for _ in range(REPS):
        for arm, env in ARMS.items():
            wall, run = _timed_run(env)
            walls[arm].append(wall)
            runs[arm] = run
    return walls, runs


def test_race_overhead(once):
    walls, runs = once(race_overhead_experiment)

    medians = {arm: statistics.median(times)
               for arm, times in walls.items()}
    plain_wall = medians["plain"]
    rows = [[arm, f"{medians[arm]:.3f}",
             f"{medians[arm] / plain_wall:.2f}x",
             f"{runs[arm].total_time:.6f}"]
            for arm in ARMS]
    save_result(
        "race_overhead",
        f"FGSan and FGRace overhead on dsort ({NODES} nodes, "
        f"{NODES * RECORDS} records, median of {REPS} interleaved reps)\n"
        + render_table(
            ["mode", "host wall s", "vs plain", "simulated s"], rows))

    # the headline guarantee: detection never changes the simulation
    assert all(run.verified for run in runs.values())
    assert runs["REPRO_SANITIZE=1"].total_time == runs["plain"].total_time
    assert runs["REPRO_RACE=1"].total_time == runs["plain"].total_time
    # FGSan's bound is loose on purpose: host timing on shared CI is noisy
    assert medians["REPRO_SANITIZE=1"] / plain_wall < 10.0
    # the acceptance bound: happens-before tracking rides existing
    # channel operations, so it must stay cheap
    assert medians["REPRO_RACE=1"] / plain_wall <= 2.0
