"""repro.plan: the static pipeline-graph planner.

A shared graph IR (:mod:`repro.plan.ir`) that linter, fingerprints, and
tuner all consume; geometry inference from the hardware cost model
(:mod:`repro.plan.geometry`); and serializable plan emission
(:mod:`repro.plan.plan`).  See docs/PLANNER.md.

This package is an import leaf: nothing here imports other ``repro``
modules at import time, so ``repro.check``, ``repro.prov``, and
``repro.tune`` can all depend on the IR without cycles.
"""

from repro.plan.geometry import (
    csort_s_candidates,
    dsort_block_candidates,
    dsort_pass_estimate,
    infer_pool_size,
)
from repro.plan.ir import PipelineIR, ProgramGraph, StageNode
from repro.plan.plan import Plan, PlanDecision, plan_sort

__all__ = [
    "PipelineIR",
    "Plan",
    "PlanDecision",
    "ProgramGraph",
    "StageNode",
    "csort_s_candidates",
    "dsort_block_candidates",
    "dsort_pass_estimate",
    "infer_pool_size",
    "plan_sort",
]
