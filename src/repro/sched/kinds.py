"""The table of schedulable job kinds.

A :class:`JobKind` adapts one SPMD program to the scheduler's contract:

* ``prepare(sub, job, seed)`` — untimed dataset setup on the allocated
  nodes, run once before the first attempt (inputs are namespaced by
  ``job.prefix`` so concurrent jobs never collide on file names);
* ``setup(sub, job, ctl)`` — per-attempt shared state built once and
  handed to every rank (e.g. a dsort job's
  :class:`~repro.recover.RecoveryManager`); may be None;
* ``runner(node, comm, job, ctl, shared)`` — the per-rank main.  It may
  raise :class:`~repro.errors.JobPreempted` at a cooperative safe point
  (``ctl.sched_point`` for collective programs, ``ctl.should_preempt``
  for communication-free ones); any other exception marks the job
  FAILED, and the scheduler's wrapper guarantees nothing escapes to the
  kernel — a raw kernel-process failure would abort every tenant's run;
* ``demand(spec)`` — the job's memory-buffer demand in bytes, charged
  against the tenant's :class:`~repro.sched.job.Quota` while running.

Built-in kinds: ``dsort``, ``csort``, ``groupby`` (the real pipelined
programs, heterogeneous workloads for the multitenant benchmark) and
``blocks`` (a modeled block-loop job with a real on-disk journal —
cheap enough to schedule by the thousand, resumable block by block).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import JobPreempted, SchedError

__all__ = ["JobKind", "get_kind", "kind_names"]


@dataclasses.dataclass(frozen=True)
class JobKind:
    """One schedulable program, as the scheduler sees it."""

    name: str
    runner: Callable[..., Any]
    demand: Callable[..., int]
    prepare: Optional[Callable[..., None]] = None
    setup: Optional[Callable[..., Any]] = None


def get_kind(name: str) -> JobKind:
    try:
        return _KINDS[name]
    except KeyError:
        raise SchedError(
            f"unknown job kind {name!r}; registered kinds: "
            f"{', '.join(sorted(_KINDS))}") from None


def kind_names() -> list[str]:
    return sorted(_KINDS)


# ---------------------------------------------------------------------------
# dataset helpers
# ---------------------------------------------------------------------------


def _job_rng(job: Any, seed: int, rank: int) -> np.random.Generator:
    """Deterministic per-(run, job, rank) generator for input data."""
    return np.random.default_rng([seed, job.id, rank])


def _sort_prepare(sub: Any, job: Any, seed: int) -> None:
    """Seeded random keys in ``<prefix>-input`` on every allocated node:
    the dataset of a dsort or a csort job."""
    from repro.pdm.blockfile import RecordFile
    from repro.pdm.records import RecordSchema

    p = job.spec.params
    schema = RecordSchema(p.get("record_bytes", 16))
    for rank, node in enumerate(sub.nodes):
        keys = _job_rng(job, seed, rank).integers(
            0, np.iinfo(np.uint64).max,
            size=p.get("records_per_node", 1024), dtype=np.uint64)
        rf = RecordFile(node.disk, f"{job.prefix}-input", schema)
        rf.delete()
        rf.poke(0, schema.from_keys(keys))


# ---------------------------------------------------------------------------
# dsort
# ---------------------------------------------------------------------------


def _dsort_config(job: Any) -> Any:
    from repro.sorting.dsort.dsort import DsortConfig

    p = job.spec.params
    prefix = job.prefix
    return DsortConfig(
        block_records=p.get("block_records", 256),
        vertical_block_records=p.get("vertical_block_records", 128),
        out_block_records=p.get("out_block_records", 256),
        nbuffers=p.get("nbuffers", 4),
        oversample=p.get("oversample", 8),
        input_file=f"{prefix}-input",
        output_file=f"{prefix}-output",
        run_prefix=f"{prefix}-run",
        seed=p.get("seed", 0),
        name_prefix=f"{prefix}.dsort",
    )


def _dsort_setup(sub: Any, job: Any, ctl: Any) -> Any:
    """Build the job's recovery manager when checkpointing is on.

    ``params["recover"]`` arms journaled block checkpoints, which is
    what makes a *preempted* dsort resume from its last durable block
    instead of restarting; ``params["speculate"]`` additionally asks the
    scheduler for a slot of the cross-tenant speculation budget (the
    grant/deny lands in the decision log).
    """
    p = job.spec.params
    if not p.get("recover", False):
        return None
    from repro.recover import RecoverPolicy, RecoveryManager, SpeculationPolicy

    speculation = None
    if p.get("speculate", False) and ctl.grant_speculation():
        speculation = SpeculationPolicy()
    return RecoveryManager(sub, RecoverPolicy(
        checkpoint=True, backup_runs=bool(speculation),
        reassign=False, speculation=speculation,
        journal_every=p.get("journal_every", 1)))


def _dsort_runner(node: Any, comm: Any, job: Any, ctl: Any,
                  shared: Any) -> dict:
    from repro.pdm.records import RecordSchema
    from repro.sorting.dsort.dsort import run_dsort

    schema = RecordSchema(job.spec.params.get("record_bytes", 16))
    report = run_dsort(node, comm, schema, _dsort_config(job),
                       recover=shared, sched_point=ctl.sched_point)
    return {"rank": report.rank, "records": report.partition_records,
            "time": report.total_time}


def _dsort_demand(spec: Any) -> int:
    p = spec.params
    rec = p.get("record_bytes", 16)
    nbuf = p.get("nbuffers", 4)
    blocks = (p.get("block_records", 256)
              + p.get("vertical_block_records", 128)
              + p.get("out_block_records", 256))
    return spec.n_nodes * nbuf * blocks * rec


# ---------------------------------------------------------------------------
# csort
# ---------------------------------------------------------------------------


def _csort_block_default(spec: Any) -> int:
    """The largest stripe block columnsort's shape rule P*block <= r
    allows, for the r its own chooser picks.  An input the chooser rejects
    gets a token block: the job then fails in ``run_csort`` with the
    chooser's message instead of raising out of admission."""
    from repro.errors import ColumnsortShapeError
    from repro.sorting.columnsort.steps import plan_columnsort

    P = spec.n_nodes
    try:
        plan = plan_columnsort(
            spec.params.get("records_per_node", 1024) * P, P)
    except ColumnsortShapeError:
        return 8
    return plan.r // P


def _csort_runner(node: Any, comm: Any, job: Any, ctl: Any,
                  shared: Any) -> dict:
    from repro.pdm.records import RecordSchema
    from repro.sorting.columnsort.csort import CsortConfig, run_csort

    p = job.spec.params
    prefix = job.prefix
    config = CsortConfig(
        out_block_records=p.get("out_block_records",
                                _csort_block_default(job.spec)),
        nbuffers=p.get("nbuffers", 4),
        input_file=f"{prefix}-input",
        output_file=f"{prefix}-output",
        temp1_file=f"{prefix}-csort-L1",
        temp2_file=f"{prefix}-csort-L2",
        name_prefix=f"{prefix}.csort",
    )
    schema = RecordSchema(p.get("record_bytes", 16))
    report = run_csort(node, comm, schema, config)
    return {"rank": report.rank, "time": report.total_time}


def _csort_demand(spec: Any) -> int:
    p = spec.params
    block = p.get("out_block_records", _csort_block_default(spec))
    return (spec.n_nodes * p.get("nbuffers", 4) * block
            * p.get("record_bytes", 16) * 3)


# ---------------------------------------------------------------------------
# groupby (satellite: promoted from repro.apps to a schedulable kind)
# ---------------------------------------------------------------------------


def _groupby_prepare(sub: Any, job: Any, seed: int) -> None:
    from repro.apps.groupby import KeyValueSchema
    from repro.pdm.blockfile import RecordFile

    p = job.spec.params
    schema = KeyValueSchema()
    n = p.get("records_per_node", 1024)
    n_keys = max(1, p.get("distinct_keys", 64))
    for rank, node in enumerate(sub.nodes):
        rng = _job_rng(job, seed, rank)
        keys = rng.integers(0, n_keys, size=n, dtype=np.uint64)
        values = rng.integers(0, 1 << 20, size=n, dtype=np.uint64)
        rf = RecordFile(node.disk, f"{job.prefix}-kv-input", schema)
        rf.delete()
        rf.poke(0, schema.make(keys, values))


def _groupby_runner(node: Any, comm: Any, job: Any, ctl: Any,
                    shared: Any) -> dict:
    from repro.apps.groupby import GroupByConfig, run_groupby

    p = job.spec.params
    prefix = job.prefix
    config = GroupByConfig(
        block_records=p.get("block_records", 512),
        vertical_block_records=p.get("vertical_block_records", 128),
        out_block_records=p.get("out_block_records", 512),
        nbuffers=p.get("nbuffers", 4),
        input_file=f"{prefix}-kv-input",
        output_file=f"{prefix}-kv-groups",
        run_prefix=f"{prefix}-groupby-run",
        name_prefix=f"{prefix}.groupby",
    )
    report = run_groupby(node, comm, config)
    return {"rank": report.rank, "records": report.input_records,
            "distinct": report.distinct_keys, "time": report.total_time}


def _groupby_demand(spec: Any) -> int:
    p = spec.params
    blocks = (p.get("block_records", 512)
              + p.get("vertical_block_records", 128)
              + p.get("out_block_records", 512))
    return spec.n_nodes * p.get("nbuffers", 4) * blocks * 16


# ---------------------------------------------------------------------------
# blocks: the modeled, journaled block loop
# ---------------------------------------------------------------------------


def _blocks_runner(node: Any, comm: Any, job: Any, ctl: Any,
                   shared: Any) -> dict:
    """N blocks of compute + a timed block write, journaled per block.

    Each rank works independently (no collectives), so preemption checks
    the raw flag before every block: ranks may stop at different block
    indices, and each resumes exactly past its own journaled blocks —
    the journal is a real :class:`~repro.pdm.Journal` on the node's
    timed disk, CRC'd lines included.
    """
    from repro.pdm.blockfile import RecordFile
    from repro.pdm.journal import Journal
    from repro.pdm.records import RecordSchema

    p = job.spec.params
    n_blocks = p.get("blocks", 8)
    block_records = max(1, p.get("block_bytes", 1 << 14) // 16)
    compute = p.get("compute", 0.002)
    schema = RecordSchema(16)
    prefix = job.prefix
    jrn = Journal(node.disk, f"{prefix}-blocks.journal")
    out = RecordFile(node.disk, f"{prefix}-blocks.out", schema)
    durable: set[int] = set()
    for entry in jrn.load():
        durable.update(int(b) for b in entry.get("blocks", ()))
    worked = 0
    try:
        for b in range(n_blocks):
            if b in durable:
                continue
            if ctl.should_preempt():
                raise JobPreempted(
                    f"job {job.id} rank {comm.rank} preempted before "
                    f"block {b}")
            node.compute(compute)
            keys = np.full(block_records, b, dtype=np.uint64)
            out.write(b * block_records, schema.from_keys(keys))
            jrn.append({"blocks": [b]})
            worked += 1
    finally:
        # measured work per attempt: the preemption benchmark asserts
        # resumed attempts redo none of the durable blocks
        job.progress[f"worked.r{comm.rank}.a{job.attempts}"] = worked
    return {"rank": comm.rank, "worked": worked,
            "resumed": len(durable), "blocks": n_blocks}


def _blocks_demand(spec: Any) -> int:
    return spec.n_nodes * 2 * spec.params.get("block_bytes", 1 << 14)


_KINDS: dict[str, JobKind] = {kind.name: kind for kind in (
    JobKind(name="dsort", runner=_dsort_runner, demand=_dsort_demand,
            prepare=_sort_prepare, setup=_dsort_setup),
    JobKind(name="csort", runner=_csort_runner, demand=_csort_demand,
            prepare=_sort_prepare),
    JobKind(name="groupby", runner=_groupby_runner,
            demand=_groupby_demand, prepare=_groupby_prepare),
    JobKind(name="blocks", runner=_blocks_runner, demand=_blocks_demand),
)}
