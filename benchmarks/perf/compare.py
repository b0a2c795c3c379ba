#!/usr/bin/env python3
"""Compare two ``run.py`` result files: ``compare.py A.json B.json``.

One row per workload x end-to-end metric with both values, the ratio B/A
(A is the base), the bound, and a verdict:

* ``improved`` / ``regressed`` — B is better / worse than A by more than
  the metric's bound (BENCHMARK.json; ``sim_s`` and ``failed_frac`` are
  exact: any change counts);
* ``unchanged`` — within the bound, and the quartile spread of both sides'
  own samples is within it too;
* ``unresolved`` — within the bound, but a side's own quartile spread is
  wider than the bound, so "unchanged" cannot be told from noise.

With both files at one seed, any change in ``fingerprints`` or in an
exact-repeat count is flagged "simulated behaviour changed".  Exits 1 on
a regression or a simulated-behaviour change, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: end-to-end metrics of the result file, in print order
END_TO_END = ("host_s", "setup_s", "peak_rss_mb", "sim_s", "failed_frac")
#: per-layer units whose values are simulated or counted, so repeat
#: exactly at one seed
EXACT_UNITS = ("count", "B", "sim_s")
#: ... except ratios of simulated quantities, which carry this unit
EXACT_NAMES = ("cluster.disk_busy_frac",)


def bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return {m["name"]: m["bound"] for m in contract["end_to_end"]}


def spread(metric: dict) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(a: dict, b: dict, bound: float) -> str:
    """All end-to-end metrics are lower-is-better."""
    if bound == 0.0:
        if b["value"] == a["value"]:
            return "unchanged"
        return "regressed" if b["value"] > a["value"] else "improved"
    ratio = b["value"] / a["value"]
    if ratio > 1.0 + bound:
        return "regressed"
    if ratio < 1.0 - bound:
        return "improved"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "unchanged"


def compare(a: dict, b: dict) -> tuple[list[list[str]], list[str]]:
    """Returns (table rows, simulated-behaviour changes)."""
    bound_of = bounds()
    same_seed = a["host"]["seed"] == b["host"]["seed"] \
        and a["host"]["quick"] == b["host"]["quick"]
    rows, changes = [], []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            changes.append(f"{name}: missing from B")
            continue
        for metric in END_TO_END:
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            if metric == "sim_s" and not same_seed:
                continue  # inputs differ, so simulated time may too
            bound = bound_of.get(metric, 0.0)
            ratio = (mb["value"] / ma["value"]) if ma["value"] else \
                (1.0 if mb["value"] == ma["value"] else float("inf"))
            rows.append([
                name, metric, f"{ma['value']:.6g}", f"{mb['value']:.6g}",
                ma["unit"], f"{ratio:.4f} (base A={ma['value']:.6g})",
                "exact" if bound == 0.0 else f"+{bound:.0%}",
                verdict(ma, mb, bound)])
        if not same_seed:
            continue
        for key in sorted(wa["fingerprints"].keys()
                          | wb["fingerprints"].keys()):
            if wa["fingerprints"].get(key) != wb["fingerprints"].get(key):
                changes.append(f"{name}: fingerprint {key} "
                               f"{wa['fingerprints'].get(key)!r} -> "
                               f"{wb['fingerprints'].get(key)!r}")
        for key, ma in wa["per_layer"].items():
            if ma["unit"] not in EXACT_UNITS and key not in EXACT_NAMES:
                continue
            vb = wb["per_layer"].get(key, {}).get("value")
            if vb != ma["value"]:
                changes.append(f"{name}: exact count {key} "
                               f"{ma['value']!r} -> {vb!r}")
    return rows, changes


def render(rows: list[list[str]]) -> str:
    header = ["workload", "metric", "A", "B", "unit", "ratio B/A",
              "bound", "verdict"]
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths))
                     .rstrip() for r in table)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    a, b = docs
    rows, changes = compare(a, b)
    print(f"A = {argv[0]} (seed {a['host']['seed']})")
    print(f"B = {argv[1]} (seed {b['host']['seed']})")
    print(render(rows))
    if a["host"]["seed"] != b["host"]["seed"]:
        print("seeds differ: sim_s, fingerprints and exact counts are "
              "not compared")
    for change in changes:
        print(f"simulated behaviour changed: {change}")
    regressed = [r for r in rows if r[-1] == "regressed"]
    print(f"{len(regressed)} regressed, {len(changes)} simulated-behaviour "
          f"change(s), {len(rows)} rows")
    return 1 if regressed or changes else 0


if __name__ == "__main__":
    raise SystemExit(main())
