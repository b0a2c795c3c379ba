#!/usr/bin/env python3
"""The host-time benchmark: one command, every metric, outputs checked.

Two ways in, one measuring path:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload and prints, as the last stdout line, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` holding the
  ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
  ``per_layer`` metrics (``--trace 1``);
* ``run.py [--seed N] [--out FILE] [--quick]`` runs all five workloads,
  untraced then traced, and writes one JSON document ``compare.py`` reads.

The driver pins itself (and so every child) to one CPU: the virtual-time
kernel runs exactly one stage thread at a time, so a second core adds
only cross-core wake-up noise.  Children are fresh interpreters with every
``REPRO_*`` variable scrubbed.  See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: fresh interpreters per untraced measurement: each is one sample of
#: setup_s and peak_rss_mb, and all their timed reps pool into host_s
SUBPROCESSES = 3
MICRO_BATCHES = 7
CHILD_TIMEOUT_S = 170

#: which isolated merge cost est_share.merge multiplies by: the one whose
#: run count and tie pattern is closest to the workload's own merges
MERGE_UNIT = {
    "dsort-uniform": "sorting.merge_ns_per_record.k8_uniform",
    "csort-uniform": "sorting.merge_ns_per_record.k8_uniform",
    "groupby-dup": "sorting.merge_ns_per_record.k16_dup",
    "sched-mixed": "sorting.merge_ns_per_record.k8_uniform",
    "chaos-recover": "sorting.merge_ns_per_record.k32_uniform",
}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summary(values: list[float]) -> dict[str, float]:
    """Median with the informational fields that sit beside it."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "q1": q1, "q3": q3}


# -- children --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # one str-hash layout for every child: dict/set probe sequences, and
    # so their cost, otherwise differ from process to process
    env["PYTHONHASHSEED"] = "0"
    # one malloc arena: with glibc's per-thread arenas a run's 40+ stage
    # threads left peak RSS 1.1-1.9x higher, growing rep by rep and
    # differing by 10 % between identical processes
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def run_child(args: list[str]) -> tuple[float, dict]:
    """Run child.py to completion; returns (spawn stamp, its JSON)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Counts reps attempted and failed; a rep fails when it raised,
    failed verification, or disagrees with the first rep on anything that
    must repeat exactly at one seed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, Any] = {}
        self.errors: list[str] = []

    def add(self, rep: dict) -> bool:
        self.attempted += 1
        if not rep["ok"]:
            self.failed += 1
            self.errors.append(rep["error"])
            return False
        prints = rep["fingerprints"]
        diff = sorted(k for k in prints.keys() & self.reference.keys()
                      if prints[k] != self.reference[k])
        if diff:
            self.failed += 1
            self.errors.append(f"fingerprint mismatch on {diff}")
            return False
        for key, value in prints.items():
            self.reference.setdefault(key, value)
        return True


# -- the two passes ----------------------------------------------------------


def measure_plain(workload: str, seed: int, seconds: float,
                  quick: bool) -> dict:
    """Untraced pass: the end-to-end metrics."""
    n_children = 1 if quick else SUBPROCESSES
    tally = Tally()
    host, wall, setup, rss, sims = [], [], [], [], []
    for _ in range(n_children):
        spawned, doc = run_child([
            "--workload", workload, "--seed", str(seed),
            "--budget", "0" if quick else str(seconds / n_children),
            "--min-reps", "1" if quick else "2",
            *(["--quick"] if quick else [])])
        setup.append((doc["setup_end"] - spawned - doc["first_loop_s"])
                     * doc["setup_factor"])
        rss.append(doc["maxrss_kb"] / 1024.0)
        tally.add(doc["warm"])
        for rep in doc["reps"]:
            if tally.add(rep):
                host.append(rep["host_s"])
                wall.append(rep["wall_s"])
                sims.append(rep["sim_s"])
    if not host:
        raise RuntimeError(f"{workload}: no rep succeeded:\n"
                           + "\n".join(tally.errors))
    return {
        "end_to_end": {
            "host_s": {**summary(host), "unit": "s",
                       "uncalibrated_wall_s": summary(wall)},
            "setup_s": {**summary(setup), "unit": "s"},
            "peak_rss_mb": {**summary(rss), "unit": "MB"},
            "sim_s": {"value": sims[0], "unit": "sim_s"},
            "failed_frac": {"value": tally.failed / tally.attempted,
                            "unit": "ratio"},
        },
        "fingerprints": tally.reference,
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
    }


def measure_micro(quick: bool) -> dict[str, float]:
    _, doc = run_child(["--micro", "2" if quick else str(MICRO_BATCHES)])
    return doc["micro"]


def measure_traced(workload: str, seed: int, seconds: float, quick: bool,
                   micro: Optional[dict[str, float]] = None) -> dict:
    """Traced pass: the per-layer metrics.  Half of ``seconds`` goes to
    alternating plain/traced reps, the rest to the isolated unit costs
    (a fixed number of batches) unless the caller already has them."""
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    _, doc = run_child([
        "--workload", workload, "--seed", str(seed), "--traced",
        "--trace-out", trace_path,
        "--budget", "0" if quick else str(seconds / 2),
        "--min-reps", "1" if quick else "3",
        *(["--quick"] if quick else [])])
    if micro is None:
        micro = measure_micro(quick)

    tally = Tally()
    tally.add(doc["warm"])
    plain = [r for r in doc["reps"] if tally.add(r)]
    traced = [r for r in doc["traced"] if tally.add(r)]
    if not plain or not traced:
        raise RuntimeError(f"{workload}: no traced rep succeeded:\n"
                           + "\n".join(tally.errors))
    counts = traced[0]["counts"]
    med = statistics.median
    host_plain = med([r["host_s"] for r in plain])
    host_traced = med([r["host_s"] for r in traced])
    layer: dict[str, float] = {"sim_s": traced[0]["sim_s"]}
    for name in traced[0]["span_s"]:
        layer[name] = med([r["span_s"][name] for r in traced])
    layer.update(counts)
    layer.update(traced[0]["simulated"])
    layer["sim.host_us_per_switch"] = (layer["cluster.run_s"]
                                       / counts["sim.switches"] * 1e6)
    layer["obs.overhead_ratio"] = host_traced / host_plain
    layer["obs.span_coverage"] = med([r["span_coverage"] for r in traced])
    layer.update(micro)

    def share(seconds_estimated: float) -> float:
        return seconds_estimated / host_plain

    layer.update({
        "est_share.merge": share(counts["sorting.merged_records"]
                                 * micro[MERGE_UNIT[workload]] * 1e-9),
        "est_share.block_sort": share(
            counts["sorting.block_sorted_records"]
            * micro["sorting.block_sort_ns_per_record"] * 1e-9),
        "est_share.sim": share(
            counts["sim.switches"] * micro["sim.switch_ns"] * 1e-9
            + counts["sim.processes"] * micro["sim.spawn_us"] * 1e-6),
        "est_share.check": share(counts["core.program_starts"]
                                 * micro["check.start_analysis_ms"] * 1e-3),
        "est_share.journal": share(counts["pdm.journal_appends"]
                                   * micro["pdm.journal_append_us"] * 1e-6),
        "est_share.disk": share(counts["cluster.disk_ops"]
                                * micro["cluster.disk_op_us"] * 1e-6),
        "est_share.net": share(counts["cluster.net_msgs"]
                               * micro["cluster.net_msg_us"] * 1e-6),
        # only runs that hash their event trace pay this
        "est_share.prov": share(
            counts["obs.trace_events"] / 1000.0
            * micro["prov.trace_digest_ms_per_kevent"] * 1e-3
            if "trace_digest" in tally.reference else 0.0),
    })
    return {"per_layer": layer, "fingerprints": tally.reference,
            "attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors, "trace_file": trace_path}


# -- output ------------------------------------------------------------------


def declared(values: dict[str, Any], specs: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json names, with its units."""
    out = {}
    for spec in specs:
        value = values[spec["name"]]
        if isinstance(value, dict):
            value = value["value"]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")


def host_facts(cpu: int, seed: int, seconds: float, quick: bool) -> dict:
    return {
        "calibration": {"loop_iterations": calib.ITERATIONS,
                        "reference_s": calib.REF_S},
        "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed, "quick": quick, "seconds_per_pass": seconds,
        "subprocesses": 1 if quick else SUBPROCESSES,
        "micro_batches": 2 if quick else MICRO_BATCHES,
        "loadavg_before": list(os.getloadavg()),
    }


def pin() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure this one workload and "
                    "print the driver's result line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="1 subprocess x 1 rep, quarter-size inputs")
    ap.add_argument("--out", help="where the all-workloads run writes "
                    "its JSON (default out/perf-<seed>.json)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None \
        else float(contract["run_seconds"])
    cpu = pin()

    if args.workload is not None:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        if args.trace:
            result = measure_traced(args.workload, args.seed, seconds,
                                    args.quick)
            metrics = declared(result["per_layer"], contract["per_layer"])
        else:
            result = measure_plain(args.workload, args.seed, seconds,
                                   args.quick)
            metrics = declared(result["end_to_end"], contract["end_to_end"])
        print_metrics(f"{args.workload} (seed {args.seed}, cpu {cpu})",
                      metrics)
        for error in result["errors"]:
            print(error, file=sys.stderr)
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": metrics}))
        return 0

    doc: dict[str, Any] = {
        "schema": 1, "claim": None,
        "host": host_facts(cpu, args.seed, seconds, args.quick),
        "workloads": {}}
    micro = measure_micro(args.quick)
    doc["micro"] = micro
    for name in names:
        plain = measure_plain(name, args.seed, seconds, args.quick)
        traced = measure_traced(name, args.seed, seconds, args.quick, micro)
        moved = sorted(k for k in plain["fingerprints"].keys()
                       & traced["fingerprints"].keys()
                       if plain["fingerprints"][k] != traced["fingerprints"][k])
        if moved:
            traced["failed"] += 1
            traced["errors"].append(
                f"traced pass disagrees with untraced pass on {moved}")
        doc["workloads"][name] = {
            "end_to_end": plain["end_to_end"],
            "per_layer": declared(traced["per_layer"],
                                  contract["per_layer"]),
            "fingerprints": {**plain["fingerprints"],
                             **traced["fingerprints"]},
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "errors": plain["errors"] + traced["errors"],
            "trace_file": os.path.relpath(traced["trace_file"], ROOT),
        }
        print_metrics(f"{name}: end to end", plain["end_to_end"])
        print_metrics(f"{name}: per layer",
                      doc["workloads"][name]["per_layer"])
    doc["host"]["loadavg_after"] = list(os.getloadavg())
    out = args.out or os.path.join(OUT_DIR, f"perf-{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"wrote {out}")
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
