"""Block-level checkpointing: retried passes resume, bytes unchanged.

The checkpoint mechanism must be invisible when nothing fails (clean
runs stay byte-identical to the legacy path) and must turn a pass
restart into a resume: the retried pass re-runs only work that never
became durable, and the output is byte-identical to the clean run's.
"""

import pytest

from repro.faults import FaultPlan, run_chaos_dsort
from repro.recover import RecoverPolicy

SEED = 42


def quiet_plan():
    return FaultPlan(seed=SEED)


def test_clean_run_is_byte_identical_to_legacy():
    legacy = run_chaos_dsort(seed=SEED, plan=quiet_plan())
    recov = run_chaos_dsort(seed=SEED, plan=quiet_plan(),
                            recover=RecoverPolicy())
    assert recov.verified
    assert recov.output_digest == legacy.output_digest
    assert recov.pass_restarts == 0
    assert recov.recovery_decisions == []


def test_mid_pass2_fault_resumes_from_durable_blocks():
    clean = run_chaos_dsort(seed=SEED, plan=quiet_plan(),
                            recover=RecoverPolicy())
    # a burst of permanent disk faults late in pass 2 forces a restart
    # of that pass; the checkpoint journals make the retry a resume
    at = 0.75 * clean.elapsed
    plan = FaultPlan(seed=SEED).with_disk_faults(
        rate=1.0, rank=1, permanent=True, start=at, end=at + 0.01)
    faulted = run_chaos_dsort(seed=SEED, plan=plan,
                              recover=RecoverPolicy())
    assert faulted.verified
    assert faulted.pass_restarts >= 1
    assert faulted.output_digest == clean.output_digest
    kinds = {d["kind"] for d in faulted.recovery_decisions}
    assert "resume" in kinds, faulted.recovery_decisions
    # the decision trail also landed in provenance
    assert faulted.provenance is not None
    assert faulted.provenance.decisions["recover"]


def test_checkpointing_is_deterministic():
    at = 0.25
    plan = lambda: FaultPlan(seed=SEED).with_disk_faults(
        rate=1.0, rank=0, permanent=True, start=at, end=at + 0.01)
    one = run_chaos_dsort(seed=SEED, plan=plan(), recover=RecoverPolicy())
    two = run_chaos_dsort(seed=SEED, plan=plan(), recover=RecoverPolicy())
    assert one.output_digest == two.output_digest
    assert one.trace_digest == two.trace_digest
    assert one.metrics_digest == two.metrics_digest
    assert one.recovery_decisions == two.recovery_decisions
