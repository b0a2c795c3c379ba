"""Identity of the provenance record every harness assembles.

PR 20 folded three hand-assembled ``ProvenanceRecord(...)`` blocks
(``run_sort``, the chaos harnesses, ``run_schedule``) into one
``ProvenanceCapture.record``.  What a harness records is its own — its
``kind``, its ``args`` dict, its seeds — and what the shared assembly
fills in (the three decision trails, the stage graphs, the metrics and
trace digests) must be exactly what each block used to write.  So each
harness's whole record is pinned here at a small fixed shape: a changed
``args`` key, a dropped seed, a reordered harvest or a missing digest
names its harness instead of surfacing three PRs later as an opaque
DIVERGED from ``repro replay``.

``PINNED`` was recorded at PR 20's parent commit (1e8dd2a), before the
fold.  Each entry is the sha256 (first 16 hex digits) of the record's
canonical JSON minus the three fields that name the source tree or the
wall clock, plus the lengths of its (tune, recovery, sched) decision
trails — an empty trail is pinned as empty.  One entry is younger:
``sort-dsort-planned-tuned`` was re-recorded in PR 22, when the ``fuse``
flag left the plan document.  The record's ``args.plan`` lost that key,
so the plan digest moved and with it the four stage graphs it stamps;
every other line of the record, the output, metrics and trace digests
included, is what 1e8dd2a wrote.

Re-record (only on purpose, in a commit that says why):
``PYTHONPATH=src python tests/prov/test_record_identity.py``.
"""

import pprint

import pytest

from repro.bench.harness import run_sort
from repro.faults import chaos_plan, run_chaos_csort, run_chaos_dsort
from repro.pdm.records import RecordSchema
from repro.prov import digest_json
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sched import Arrival, ArrivalTrace, JobSpec, Quota, run_schedule

SCHEMA = RecordSchema.paper_16()
#: what differs between two recordings of one run: the tree, the clock
UNPINNED = ("code_fingerprint", "repro_version", "created")
#: hex digits kept of every sha256, as in
#: tests/sorting/test_stage_library_identity.py
HEX = 16


def _sort(sorter, **kwargs):
    return lambda: run_sort(sorter, "uniform", SCHEMA, n_nodes=2,
                            n_per_node=2048, provenance=True,
                            **kwargs).provenance


def _chaos_recover():
    """The ``chaos-recover`` benchmark workload's shape, at 3 x 600."""
    return run_chaos_dsort(
        n_nodes=3, records_per_node=600, seed=5,
        plan=chaos_plan(5, 3, disk_fault_rate=0.02, drop_rate=0.01,
                        straggler_rank=1),
        recover=RecoverPolicy(
            checkpoint=True, backup_runs=True,
            speculation=SpeculationPolicy(interval=0.01, patience=2,
                                          min_progress=0.02)),
        block_records=256, vertical_block_records=64,
        out_block_records=256).provenance


def _sched_preempted_dsort():
    """A low-priority checkpointing dsort job, preempted once by a
    ``blocks`` job and resumed; a second ``blocks`` job queues behind."""
    trace = ArrivalTrace(arrivals=(
        Arrival(0.0, JobSpec("batch", "dsort", n_nodes=2, priority=0,
                             params={"recover": True,
                                     "records_per_node": 2048})),
        Arrival(0.02, JobSpec("online", "blocks", n_nodes=2, priority=5,
                              params={"blocks": 2})),
        Arrival(0.03, JobSpec("online", "blocks", n_nodes=1, priority=5,
                              params={"blocks": 2}))))
    report = run_schedule(trace, n_nodes=2, policy="priority",
                          preempt=True, seed=3,
                          quotas={"batch": Quota(), "online": Quota()})
    assert [job.preemptions for job in report.jobs] == [1, 0, 0]
    return report.provenance


CASES = {
    "sort-dsort": _sort("dsort"),
    "sort-csort": _sort("csort"),
    "sort-nowsort": _sort("nowsort"),
    "sort-dsort-planned-tuned": _sort("dsort", plan=True,
                                      tune={"nbuffers": 6}),
    "chaos-dsort-recover": _chaos_recover,
    "chaos-csort": lambda: run_chaos_csort().provenance,
    "sched-preempted-dsort": _sched_preempted_dsort,
}


def _identity(record):
    doc = record.to_json()
    for field in UNPINNED:
        del doc[field]
    return {"record": digest_json(doc)[:HEX],
            "trails": (len(record.tune_decisions),
                       len(record.recovery_decisions),
                       len(record.sched_decisions))}


PINNED = {
    "chaos-csort": {"record": "7b10ee409d31941f",
                    "trails": (0, 0, 0)},
    "chaos-dsort-recover": {"record": "6454322938e0bb55",
                            "trails": (0, 4, 0)},
    "sched-preempted-dsort": {"record": "d7820972bda70410",
                              "trails": (0, 0, 18)},
    "sort-csort": {"record": "dc9ff85c6428bef7",
                   "trails": (0, 0, 0)},
    "sort-dsort": {"record": "f05b80a50c6b688b",
                   "trails": (0, 0, 0)},
    "sort-dsort-planned-tuned": {"record": "ed978d7109a19f0f",
                                 "trails": (0, 0, 0)},
    "sort-nowsort": {"record": "2825a061277f544d",
                     "trails": (0, 0, 0)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_harness_records_what_it_recorded_before_the_fold(name):
    assert _identity(CASES[name]()) == PINNED[name]


if __name__ == "__main__":
    pprint.pprint({name: _identity(CASES[name]()) for name in sorted(CASES)},
                  width=76)
