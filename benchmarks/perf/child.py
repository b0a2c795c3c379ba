"""One measuring subprocess: import → warm-up rep → timed reps.

``run.py`` starts this file fresh for every sample of ``setup_s`` and
``peak_rss_mb``.  It prints one JSON object on its last stdout line.

* plain mode: timed reps, one at a time (closed loop), until ``--budget``
  seconds of them have run (at least ``--min-reps``);
* ``--traced``: plain and traced reps alternate, so the tracing overhead
  is a ratio of medians taken under the same host conditions; spans go to
  ``--trace-out`` when the process ends;
* ``--micro N``: no workload, N interleaved batches of the unit costs.

Every host time is scaled to the reference CPU speed (see calib.py); the
raw wall time rides along as ``wall_s``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
import traceback
from typing import Any, Optional

import calib


def timed_rep(workload: Any, seed: int, quick: bool, observe: bool,
              scale: calib.Scale, recorder: Any = None,
              rep_id: int = 0) -> dict:
    """Run one rep; never raises — a failure is part of the result."""
    gc.collect()
    out: dict[str, Any] = {"ok": False}
    if recorder is not None:
        recorder.begin(rep_id)
    t = time.perf_counter()
    try:
        rep = workload(seed, quick, observe)
        wall = time.perf_counter() - t
    except Exception:  # the boundary: record, count as failed, go on
        out["error"] = traceback.format_exc()
        return out
    finally:
        if recorder is not None:
            recorder.end()
    factor = scale.next()
    out.update(ok=True, wall_s=wall, host_s=wall * factor,
               sim_s=rep.sim_s, fingerprints=rep.fingerprints)
    if recorder is not None:
        import traced
        totals = recorder.totals(rep_id)
        out["counts"] = traced.counts(rep, recorder, totals)
        out["simulated"] = traced.simulated(rep, recorder)
        out["span_s"] = {name: agg["seconds"] * factor
                         for name, agg in totals.items()
                         if name.endswith("_s")}
        out["span_coverage"] = recorder.top_level_seconds(rep_id) / wall
        # counts and simulated ratios must repeat exactly, like any other
        # fingerprint; so must the output bytes, where only this pass
        # can see them
        exact = {"counts": out["counts"], "simulated": out["simulated"]}
        out["fingerprints"] = {
            **rep.fingerprints,
            "counts_sha256": hashlib.sha256(
                json.dumps(exact, sort_keys=True).encode()).hexdigest()}
        sha = traced.output_sha256(rep, recorder)
        if sha is not None:
            out["fingerprints"]["output_sha256"] = sha
    return out


def main(argv: Optional[list[str]] = None) -> int:
    scale = calib.Scale()  # before the heavy imports: brackets set-up
    first_loop_s = scale.last
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--min-reps", type=int, default=2)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--micro", type=int, default=0)
    args = ap.parse_args(argv)

    if args.micro:
        import micro
        print(json.dumps({"micro": micro.run_all(args.micro, scale)}))
        return 0

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    recorder = None
    if args.traced:
        import traced
        recorder = traced.Recorder()

    warm = timed_rep(workload, args.seed, args.quick, False, scale)
    # CLOCK_MONOTONIC is system-wide, so this compares with the stamp the
    # parent took before the spawn; the loop that closed the warm-up rep
    # is not part of set-up
    setup_end = time.monotonic() - scale.last
    setup_factor = calib.REF_S / ((first_loop_s + scale.last) / 2.0)

    plain: list[dict] = []
    traced_reps: list[dict] = []
    start = time.perf_counter()
    while (len(plain) < args.min_reps
           or time.perf_counter() - start < args.budget):
        plain.append(timed_rep(workload, args.seed, args.quick, False,
                               scale))
        if recorder is not None:
            traced_reps.append(timed_rep(
                workload, args.seed, args.quick, True, scale,
                recorder=recorder, rep_id=len(traced_reps)))

    if recorder is not None and args.trace_out:
        recorder.write(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "quick": args.quick,
            "rep_wall_s": [r.get("wall_s") for r in traced_reps]})
    print(json.dumps({
        "setup_end": setup_end, "first_loop_s": first_loop_s,
        "setup_factor": setup_factor, "warm": warm, "reps": plain,
        "traced": traced_reps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
