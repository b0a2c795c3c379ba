"""Deterministic fault injection and retry machinery.

``repro.faults`` turns the happy-path simulated cluster into one that can
rehearse failure: a :class:`FaultPlan` declares *what* can go wrong
(transient/permanent disk faults, message drops, NIC degradation, node
crashes, stragglers), a :class:`FaultInjector` decides *when* it goes
wrong — deterministically, from the plan seed and per-site Philox
streams, so every chaos run is reproducible and bisectable — and a
:class:`RetryPolicy` defines how the disk and network layers absorb the
transient subset.  Permanent faults escalate to pipeline teardown
(:class:`~repro.errors.PipelineFailed`) and pass-level recovery in the
sorting layer.

See ``docs/ROBUSTNESS.md`` for the full fault model and recovery
semantics.
"""

from repro.faults.chaos import ChaosReport, run_chaos_csort, run_chaos_dsort
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DiskFaultAt,
    DiskFaults,
    FaultPlan,
    MessageDrops,
    NicDegradation,
    NodeCrash,
    Straggler,
    chaos_plan,
)
from repro.faults.retry import NO_RETRY, RetryPolicy

__all__ = [
    "ChaosReport",
    "DiskFaultAt",
    "DiskFaults",
    "FaultInjector",
    "FaultPlan",
    "MessageDrops",
    "NO_RETRY",
    "NicDegradation",
    "NodeCrash",
    "RetryPolicy",
    "Straggler",
    "chaos_plan",
    "run_chaos_csort",
    "run_chaos_dsort",
]
