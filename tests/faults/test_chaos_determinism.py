"""Satellite property: chaos runs are an exact function of the seed.

Two dsort runs with the same FaultPlan seed must produce identical event
timelines, identical metrics snapshots, and identical sorted output; and
faults may cost *time* but never *correctness* — the faulted output is
byte-identical to the fault-free output of the same dataset.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, chaos_plan, run_chaos_dsort

NODES = 2
RECORDS = 360
SIZES = dict(block_records=64, vertical_block_records=32,
             out_block_records=64, oversample=4)


def run(seed, plan=None, trace=True):
    return run_chaos_dsort(n_nodes=NODES, records_per_node=RECORDS,
                           seed=seed, plan=plan, pass_retries=1,
                           trace=trace, **SIZES)


def chaos(seed):
    return chaos_plan(seed, NODES, disk_fault_rate=0.05, drop_rate=0.02,
                      straggler_rank=1, straggler_slowdown=2.0)


def test_same_seed_runs_are_byte_identical():
    first = run(7, chaos(7))
    second = run(7, chaos(7))
    assert first.fault_summary["total"] > 0  # the chaos actually bit
    assert first.fault_events == second.fault_events
    assert first.trace_digest == second.trace_digest
    assert first.output_digest == second.output_digest
    # recorded when the digest hashed read_all().tobytes() in one piece
    assert first.output_digest == (
        "9c0d98f54d504d245f6878ad10c34cc7"
        "6d0530ce5a7ae606c1c63f92df9220ed")
    assert first.metrics == second.metrics
    assert first.elapsed == second.elapsed
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_faults_cost_time_never_correctness():
    clean = run(7, FaultPlan(seed=7))
    faulted = run(7, chaos(7))
    assert clean.fault_summary["total"] == 0
    assert faulted.fault_summary["total"] > 0
    # same dataset, same sorted bytes — but a different, slower timeline
    assert faulted.output_digest == clean.output_digest
    assert faulted.trace_digest != clean.trace_digest
    assert faulted.elapsed > clean.elapsed


def test_different_seeds_give_different_timelines():
    assert run(7, chaos(7)).trace_digest != run(8, chaos(8)).trace_digest


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_same_seed_same_run(seed):
    first = run(seed, chaos(seed), trace=False)
    second = run(seed, chaos(seed), trace=False)
    assert first.verified and second.verified
    assert first.fault_events == second.fault_events
    assert first.output_digest == second.output_digest
    assert first.metrics == second.metrics
    assert first.elapsed == second.elapsed
