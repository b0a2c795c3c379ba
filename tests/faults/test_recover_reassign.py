"""Partition re-assignment: a node crash mid-pass-2 is survivable.

When a node dies during the merge pass, the survivors enter a new
epoch: the dead rank's partitions are re-striped across the living
nodes (its buddy adopting the backup run copies), only blocks that
never became durable re-run, and the reassembled output stays
byte-identical to the clean run's.
"""

import pytest

from repro.errors import ProcessFailed, SortError
from repro.faults import FaultPlan, run_chaos_dsort
from repro.recover import RecoverPolicy

SEED = 42


def full_policy():
    return RecoverPolicy(checkpoint=True, backup_runs=True, reassign=True)


def test_crash_mid_pass2_reassigns_and_preserves_bytes():
    clean = run_chaos_dsort(seed=SEED, plan=FaultPlan(seed=SEED),
                            recover=full_policy())
    at = 0.75 * clean.elapsed
    plan = FaultPlan(seed=SEED).with_node_crash(rank=1, at=at)
    crashed = run_chaos_dsort(seed=SEED, plan=plan,
                              recover=full_policy())
    assert crashed.verified
    assert crashed.output_digest == clean.output_digest
    kinds = [d["kind"] for d in crashed.recovery_decisions]
    assert "node_dead" in kinds
    assert "reassign" in kinds, crashed.recovery_decisions
    assert crashed.pass_restarts >= 1
    # decisions reached provenance, and the record replays byte-exactly
    assert crashed.provenance is not None
    assert crashed.provenance.decisions["recover"]
    assert crashed.recovery_decisions == (
        run_chaos_dsort(seed=SEED, plan=plan,
                        recover=full_policy()).recovery_decisions)


def test_crash_without_reassignment_policy_fails_the_sort():
    plan = FaultPlan(seed=SEED).with_node_crash(rank=1, at=0.3)
    with pytest.raises((SortError, ProcessFailed),
                       match="no reassign"):
        run_chaos_dsort(seed=SEED, plan=plan,
                        recover=RecoverPolicy(checkpoint=True),
                        pass_retries=3)
