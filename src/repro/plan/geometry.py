"""Geometry inference: derive buffer geometry from the hardware model.

The hand-tuned defaults in ``repro.bench.harness`` encode folklore
("~4096-record blocks, pools of 4"); the offline tuner (PR 5) showed
that folklore leaves 17.9% (dsort) / 27.5% (csort) on the table at
benchmark scale.  This module re-derives the same knobs *analytically*
from :class:`~repro.cluster.hardware.HardwareModel` — the cost model the
simulator itself charges — so the planner can close that gap at zero
search cost.

Three rules, one per knob family:

* **Block size (dsort)** — each pass-1 block costs one read, one
  pipeline traversal, and one run write; pass 2 re-reads runs in
  vertical half-blocks and writes output stripes.  Per-operation disk
  overhead (:attr:`HardwareModel.disk_seek`) pushes blocks *up*; the
  pipeline-fill term (a deeper pipeline idles the disk for one block
  time per extra stage before overlap starts) pushes them *down*.
  :func:`dsort_pass_estimate` prices both and the planner takes the
  argmin over the same power-of-two candidate ladder the tuner searches.

* **Column count (csort)** — columnsort's shape constraint
  (``2*(s-1)^2 <= N/s``) yields few legal column counts; fewer, taller
  columns amortize per-operation overhead but leave each node too few
  columns to overlap its passes.  The planner picks the smallest legal
  ``s`` giving every node at least two columns per pass
  (``s >= 2 * n_nodes``) — one on the disk, one in the pipeline —
  falling back to the largest legal ``s`` when the shape constraint
  allows none.

* **Pool size and replicas (both sorts)** — a pipeline can only overlap
  as many buffers as it has *distinct resources* to keep busy: disk
  arm, CPU, NIC.  Pool size is therefore
  ``min(effective_depth, 3) + 1`` (the +1 keeps the source from
  starving while the deepest stage holds its buffer).  The sort stage
  is replicated only when its CPU cost per block exceeds the disk time
  that delivers the block — at the benchmark's disk-bound scale the
  model says one copy suffices, and the tuner's measurements agree.

Candidate ladders (:func:`dsort_block_candidates`,
:func:`csort_s_candidates`) are shared with ``repro.tune.sorters`` so
planner and tuner search the same space by construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ColumnsortShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.hardware import HardwareModel

__all__ = [
    "csort_s_candidates",
    "dsort_block_candidates",
    "dsort_pass_estimate",
    "infer_pool_size",
    "plan_csort_geometry",
    "plan_dsort_geometry",
]

#: distinct hardware resource classes a pipeline can keep busy at once
#: (disk arm, CPU, NIC) — the useful overlap width of any stage chain
RESOURCE_CLASSES = 3

#: declared stage-chain depths of the shipped sorters (send/recv
#: pipelines of dsort pass 1; the deepest csort pass, pass 3)
DSORT_PIPELINE_DEPTH = 3
CSORT_PIPELINE_DEPTH = 6

#: replication cap mirrored from the tuner's axis (repro.tune.sorters)
MAX_SORT_REPLICAS = 4


def _pow2_between(lo: int, hi: int) -> list[int]:
    out = []
    v = 1
    while v <= hi:
        if v >= lo:
            out.append(v)
        v *= 2
    return out


def dsort_block_candidates(n_nodes: int, n_per_node: int) -> tuple[int, ...]:
    """The pass-1 block-size ladder both planner and tuner consider:
    powers of two from ``max(64, n_per_node / 16)`` to ``n_per_node``,
    plus the hand-tuned default."""
    from repro.bench.harness import default_dsort_config

    n_total = n_nodes * n_per_node
    default = default_dsort_config(n_total, n_nodes)
    blocks = set(_pow2_between(max(64, n_per_node // 16), n_per_node))
    blocks.add(default.block_records)
    return tuple(sorted(blocks))


def csort_s_candidates(n_nodes: int, n_per_node: int) -> tuple[int, ...]:
    """Legal columnsort column counts both planner and tuner consider:
    multiples of the node count satisfying the height constraint
    ``2*(s-1)^2 <= N/s``, the shape validator, and run_csort's
    ``P * out_block <= r`` striping requirement."""
    from repro.bench.harness import default_csort_config
    from repro.sorting.columnsort.steps import (
        plan_columnsort,
        validate_shape,
    )

    n_total = n_nodes * n_per_node
    default = default_csort_config(n_total, n_nodes)
    plan = plan_columnsort(n_total, n_nodes)
    valid_s = []
    s = n_nodes
    while 2 * (s - 1) ** 2 <= n_total // max(s, 1):
        if n_total % s == 0:
            r = n_total // s
            try:
                validate_shape(n_total, r, s, n_nodes)
            except ColumnsortShapeError:
                pass
            else:
                if default.out_block_records * n_nodes <= r:
                    valid_s.append(s)
        s += n_nodes
    if plan.s not in valid_s:
        valid_s.append(plan.s)
    return tuple(sorted(valid_s))


def infer_pool_size(depth: int) -> int:
    """Buffers for a pipeline of ``depth`` concurrent holders: enough to
    keep every distinct resource class busy, plus one in reserve so the
    source never starves."""
    return min(depth, RESOURCE_CLASSES) + 1


def _sort_replicas(hw: "HardwareModel", sort_records: int,
                   delivery_time: float) -> int:
    """Copies of the sort stage needed to keep up with disk delivery:
    one while CPU cost per unit stays under the disk time that delivers
    it, more (capped) once sorting becomes the bottleneck."""
    if delivery_time <= 0:
        return 1
    need = math.ceil(hw.sort_time(sort_records) / delivery_time)
    return max(1, min(MAX_SORT_REPLICAS, need))


def dsort_pass_estimate(block: int, n_nodes: int, n_per_node: int,
                        record_bytes: int, hw: "HardwareModel",
                        out_block: int) -> float:
    """Analytic per-node makespan of both dsort passes at block size
    ``block`` (seconds), under the disk-bound regime the benchmark runs
    in.

    Pass 1 is disk-serialized on each node: every block is read once
    and its run written once (``2 * ceil(per/B) * disk_time(B)``), plus
    a pipeline-fill penalty of one block-read per send-pipeline stage
    beyond the first — larger blocks idle the disk longer before
    overlap begins.  Pass 2 re-reads runs in vertical half-blocks under
    the merge's concurrent prefetch and writes output stripes, so only
    its transfer terms count.
    """
    per = n_per_node
    t_block = hw.disk_time(block * record_bytes)
    vertical = max(1, block // 2)
    pass1 = 2 * math.ceil(per / block) * t_block
    fill = (DSORT_PIPELINE_DEPTH - 1) * t_block
    pass2 = (math.ceil(per / vertical) * hw.disk_time(
                vertical * record_bytes)
             + math.ceil(per / out_block) * hw.disk_time(
                out_block * record_bytes))
    return pass1 + fill + pass2


def plan_dsort_geometry(n_nodes: int, n_per_node: int, record_bytes: int,
                        hw: "HardwareModel") -> tuple[dict, list[dict]]:
    """dsort geometry from the cost model: ``(config overrides,
    decision dicts)``."""
    from repro.bench.harness import stripe_block_records

    n_total = n_nodes * n_per_node
    out_block = stripe_block_records(n_total, n_nodes)
    candidates = dsort_block_candidates(n_nodes, n_per_node)
    costed = [(dsort_pass_estimate(b, n_nodes, n_per_node, record_bytes,
                                   hw, out_block), b)
              for b in candidates]
    est, block = min(costed)
    nbuffers = infer_pool_size(DSORT_PIPELINE_DEPTH)
    replicas = _sort_replicas(hw, block,
                              hw.disk_time(block * record_bytes))
    config = {"block_records": block, "nbuffers": nbuffers,
              "sort_replicas": replicas}
    decisions = [
        {"target": "block_records", "value": block,
         "reason": (f"argmin of the two-pass disk model over candidates "
                    f"{list(candidates)}: {est * 1e3:.3f} ms/node "
                    f"estimated (seek amortization vs pipeline fill)")},
        {"target": "buffer_bytes", "value": block * record_bytes,
         "reason": (f"{block} records x {record_bytes} B — one pass-1 "
                    "block per buffer")},
        {"target": "nbuffers", "value": nbuffers,
         "reason": (f"min(depth {DSORT_PIPELINE_DEPTH}, "
                    f"{RESOURCE_CLASSES} resource classes) + 1 reserve")},
        {"target": "sort_replicas", "value": replicas,
         "reason": (f"sort {hw.sort_time(block) * 1e3:.3f} ms/block vs "
                    f"disk {hw.disk_time(block * record_bytes) * 1e3:.3f}"
                    " ms/block: "
                    + ("disk-bound, one copy keeps up" if replicas == 1
                       else "sort-bound, replicate to match delivery"))},
        {"target": "channel_capacity", "value": None,
         "reason": ("pool-bounded already (nbuffers caps in-flight "
                    "buffers); bounding channels too risks FG108 "
                    "wait-for cycles for no extra backpressure")},
    ]
    return config, decisions


def plan_csort_geometry(n_nodes: int, n_per_node: int, record_bytes: int,
                        hw: "HardwareModel") -> tuple[dict, list[dict]]:
    """csort geometry from the cost model: ``(config overrides,
    decision dicts)``."""
    n_total = n_nodes * n_per_node
    candidates = csort_s_candidates(n_nodes, n_per_node)
    overlapping = [s for s in candidates if s >= 2 * n_nodes]
    if overlapping:
        s = min(overlapping)
        why = (f"smallest legal column count giving every node >= 2 "
               f"columns per pass (s >= 2P = {2 * n_nodes}): taller "
               "columns amortize per-op disk overhead, and two columns "
               "per node keep disk and pipeline overlapped")
    else:
        s = max(candidates)
        why = ("no legal column count reaches 2 columns/node; taking "
               "the largest legal s to maximize per-node overlap")
    r = n_total // s
    nbuffers = infer_pool_size(CSORT_PIPELINE_DEPTH)
    replicas = _sort_replicas(hw, r, hw.disk_time(r * record_bytes))
    config = {"s_override": s, "nbuffers": nbuffers,
              "sort_replicas": replicas}
    decisions = [
        {"target": "s_override", "value": s,
         "reason": f"{why}; candidates {list(candidates)}"},
        {"target": "buffer_bytes", "value": r * record_bytes,
         "reason": f"one column of r = {r} records x {record_bytes} B"},
        {"target": "nbuffers", "value": nbuffers,
         "reason": (f"min(depth {CSORT_PIPELINE_DEPTH} [pass 3], "
                    f"{RESOURCE_CLASSES} resource classes) + 1 reserve")},
        {"target": "sort_replicas", "value": replicas,
         "reason": (f"sort {hw.sort_time(r) * 1e3:.3f} ms/column vs "
                    f"disk {hw.disk_time(r * record_bytes) * 1e3:.3f} "
                    "ms/column: "
                    + ("disk-bound, one copy keeps up" if replicas == 1
                       else "sort-bound, replicate to match delivery"))},
        {"target": "channel_capacity", "value": None,
         "reason": ("pool-bounded already (nbuffers caps in-flight "
                    "buffers); bounding channels too risks FG108 "
                    "wait-for cycles for no extra backpressure")},
    ]
    return config, decisions
