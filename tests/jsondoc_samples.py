"""A fixed sample of every document class (see ``tests/test_jsondoc.py``).

Imports nothing newer than the classes themselves, so the same file
records ``tests/fixtures/parent_documents.json`` at any commit::

    PYTHONPATH=<checkout>/src python tests/jsondoc_samples.py \\
        > tests/fixtures/parent_documents.json

(the committed fixture was written that way by PR 24's parent, 03d73ea).
"""

import dataclasses
import json

from repro.faults import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.plan import plan_sort
from repro.prov import ProvenanceRecord
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sched import ArrivalTrace, JobSpec, Quota, synthetic_trace


def samples():
    """name -> one instance of each document class."""
    fault_plan = (FaultPlan(seed=7)
                  .with_disk_faults(rate=0.1, start=1.0, end=2.0)
                  .with_disk_fault_at(rank=1, op_index=5)
                  .with_message_drops(rate=0.05, src=0, dst=2)
                  .with_nic_degradation(factor=2.0, rank=1)
                  .with_straggler(rank=2, slowdown=4.0)
                  .with_node_crash(rank=0, at=10.0))
    trace = synthetic_trace(3, 4, ("alpha", "beta"), kinds=("blocks", "dsort"),
                            params={"blocks": {"blocks": 2},
                                    "dsort": {"records_per_node": 600}})
    plan = plan_sort("dsort", 4, 4096)
    recover = RecoverPolicy(
        backup_runs=True, reassign=True,
        speculation=SpeculationPolicy(interval=0.01, patience=3))
    return {
        "Quota": Quota(max_nodes=2, weight=2.5),
        "JobSpec": JobSpec(tenant="alpha", kind="blocks", n_nodes=2,
                           params={"blocks": 2}, priority=1),
        "ArrivalTrace": trace,
        "SpeculationPolicy": SpeculationPolicy(lag_ratio=0.25),
        "RecoverPolicy": recover,
        "RecoverPolicy.plain": RecoverPolicy(checkpoint=False),
        "RetryPolicy": RetryPolicy(max_attempts=3, op_timeout=0.5),
        "Plan": plan,
        "FaultPlan": fault_plan,
        "ProvenanceRecord": ProvenanceRecord(
            kind="chaos_dsort",
            args={"n_nodes": 2, "seed": 7, "retry": None,
                  "recover": recover.to_json(), "plan": plan.to_json(),
                  "trace": trace.to_json()},
            seeds={"workload": 7, "fault_plan": 7},
            fault_plan=fault_plan.to_json(),
            tune_decisions=[{"time": 0.5, "process": "tuner", "detail": "x"}],
            stage_graphs={"dsort-pass1@0": "ab" * 32},
            digests={"output": "cd" * 32, "metrics": "", "trace": "ef" * 32},
            repro_version="1.0.0", code_fingerprint="12" * 32),
    }


def document(obj):
    """What the commit under test writes for ``obj``."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return dataclasses.asdict(obj)  # RetryPolicy: chaos.py's `args` entry


if __name__ == "__main__":
    print(json.dumps({name: document(obj)
                      for name, obj in samples().items()},
                     indent=2, sort_keys=True))
