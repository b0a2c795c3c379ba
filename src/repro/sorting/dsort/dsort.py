"""dsort driver: sampling, pass 1, pass 2, with per-phase timing.

:func:`run_dsort` is an SPMD per-node main — launch it with
``Cluster.run`` (or spawn it per rank yourself).  Barriers separate the
phases so the per-phase durations reported by every rank agree, matching
how the paper's Figure 8 stacks per-pass times.

Recovery: with ``pass_retries > 0``, each pass is a cluster-wide
checkpointable unit.  After every pass the ranks agree (allgather)
whether anyone's pipelines failed; on failure every rank discards the
pass's partial artifacts (run files / output stripes), drains stale
messages, and the whole pass restarts from the previous checkpoint —
pass 1 restarts from the input, pass 2 from the sorted runs.  See
docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram
from repro.errors import PipelineFailed, SortError, SpeculationLost
from repro.pdm.blockfile import RecordFile
from repro.pdm.journal import Journal
from repro.pdm.records import RecordSchema
from repro.pdm.striped import striped_share
from repro.sorting.dsort.pass1 import (TAG_PASS1, build_pass1,
                                       build_pass1_recover)
from repro.sorting.dsort.pass2 import (TAG_PASS2, build_pass2,
                                       build_pass2_recover, pieces_of)
from repro.sorting.dsort.sampling import select_splitters

__all__ = ["DsortConfig", "DsortReport", "run_dsort"]


@dataclasses.dataclass(frozen=True)
class DsortConfig:
    """Tuning knobs for dsort (defaults sized for simulation-scale runs)."""

    #: records per pass-1 buffer; also the size of each sorted run
    block_records: int = 4096
    #: records per vertical-pipeline buffer in pass 2 (small, many runs)
    vertical_block_records: int = 1024
    #: records per output stripe block (and per horizontal buffer)
    out_block_records: int = 4096
    #: buffers per pipeline
    nbuffers: int = 4
    #: samples per node = oversample * P
    oversample: int = 32
    input_file: str = "input"
    output_file: str = "output"
    #: prefix for intermediate run files
    run_prefix: str = "dsort-run"
    seed: int = 0
    #: cluster-wide restarts allowed per pass (0 = fail fast); each pass
    #: is a checkpoint, so a retried pass 2 restarts from the sorted runs
    pass_retries: int = 0
    #: copies of the pass-1 receive pipeline's sort stage (it is
    #: stateless; see repro.tune and docs/TUNING.md)
    sort_replicas: int = 1
    #: prefix for FGProgram (and hence process/metric/trace) names;
    #: the multi-tenant scheduler sets a per-job prefix so concurrent
    #: jobs on one kernel stay distinguishable in every artifact
    name_prefix: str = "dsort"

    def __post_init__(self):
        for field in ("block_records", "vertical_block_records",
                      "out_block_records", "nbuffers", "oversample",
                      "sort_replicas"):
            if getattr(self, field) < 1:
                raise SortError(f"{field} must be >= 1")
        if self.pass_retries < 0:
            raise SortError("pass_retries must be >= 0")


@dataclasses.dataclass
class DsortReport:
    """Per-node result of one dsort execution (times in kernel seconds)."""

    rank: int
    sampling_time: float
    pass1_time: float
    pass2_time: float
    #: records this node held between the passes (its partition size)
    partition_records: int
    #: number of sorted runs merged in pass 2
    n_runs: int
    #: cluster-wide pass restarts this run needed (0 on a clean run)
    pass_restarts: int = 0
    #: this node crashed mid-run; the survivors finished without it
    dead: bool = False

    @property
    def total_time(self) -> float:
        return self.sampling_time + self.pass1_time + self.pass2_time


def run_dsort(node: Node, comm: Comm, schema: RecordSchema,
              config: Optional[DsortConfig] = None,
              recover=None,
              sched_point: Optional[Callable[[str], None]] = None
              ) -> DsortReport:
    """Sort the cluster's ``input`` files into striped ``output`` (SPMD).

    With ``recover`` (a :class:`~repro.recover.RecoveryManager` shared
    by all ranks) the run uses the fine-grained recovery path:
    journaled block-level checkpoints, dead-tolerant synchronization,
    speculative backup merges, and partition re-assignment after a node
    crash.  Without it the behavior is byte-identical to before
    ``repro.recover`` existed.

    ``sched_point`` (set by the multi-tenant scheduler) is called at the
    phase boundaries behind a barrier — a cooperative safe point where
    it may raise :class:`~repro.errors.JobPreempted` on every rank
    consistently; the pass-1 journals then make the re-run resume from
    the last durable block instead of restarting.
    """
    if config is None:
        config = DsortConfig()
    if recover is not None:
        return _run_dsort_recover(node, comm, schema, config, recover,
                                  sched_point)
    kernel = node.kernel

    comm.barrier()
    t0 = kernel.now()

    # Phase 0: splitter selection by oversampling.
    splitters = select_splitters(node, comm, schema, config.input_file,
                                 oversample=config.oversample,
                                 seed=config.seed)
    comm.barrier()
    t1 = kernel.now()
    if sched_point is not None:
        sched_point("after-sampling")

    # Pass 1: partition + distribute -> sorted runs on every node.
    state: dict = {}

    def run_pass1(attempt: int) -> None:
        state.clear()
        suffix = f".r{attempt}" if attempt else ""
        prog1 = FGProgram(kernel, env={"node": node, "comm": comm},
                          name=f"{config.name_prefix}-p1@{comm.rank}{suffix}")
        build_pass1(prog1, node, comm, schema, splitters,
                    input_file=config.input_file,
                    run_prefix=config.run_prefix,
                    block_records=config.block_records,
                    nbuffers=config.nbuffers, state=state,
                    sort_replicas=config.sort_replicas)
        prog1.run()

    def reset_pass1() -> None:
        _discard_runs(node, config.run_prefix)
        _drain_stale(comm, TAG_PASS1)

    p1_restarts = _attempt_pass(comm, kernel, "pass1", config.pass_retries,
                                run_pass1, reset_pass1)
    comm.barrier()
    t2 = kernel.now()
    if sched_point is not None:
        sched_point("after-pass1")

    # Pass 2: merge runs, load-balance, stripe the output.
    runs = state.get("runs", [])
    local_total = sum(n for _, n in runs)
    totals = comm.allgather(local_total)
    start_global = sum(totals[:comm.rank])
    my_records = striped_share(sum(totals), config.out_block_records,
                               comm.size, comm.rank)
    out_rf = RecordFile(node.disk, config.output_file, schema)

    def run_pass2(attempt: int) -> None:
        # (re)create the output file at its exact final local size; the
        # striped writes are idempotent, so a retried pass overwrites any
        # partial stripes from the failed attempt
        out_rf.delete()
        node.disk.storage.truncate(config.output_file,
                                   my_records * schema.record_bytes)
        suffix = f".r{attempt}" if attempt else ""
        prog2 = FGProgram(kernel, env={"node": node, "comm": comm},
                          name=f"{config.name_prefix}-p2@{comm.rank}{suffix}")
        build_pass2(prog2, node, comm, schema, runs, start_global,
                    output_file=config.output_file,
                    vertical_block_records=config.vertical_block_records,
                    out_block_records=config.out_block_records,
                    nbuffers=config.nbuffers)
        prog2.run()

    def reset_pass2() -> None:
        _drain_stale(comm, TAG_PASS2)

    p2_restarts = _attempt_pass(comm, kernel, "pass2", config.pass_retries,
                                run_pass2, reset_pass2)
    comm.barrier()
    t3 = kernel.now()

    # untimed cleanup: the run files are dead once pass 2 has merged them
    for run_name, _ in runs:
        node.disk.delete(run_name)

    return DsortReport(rank=comm.rank,
                       sampling_time=t1 - t0,
                       pass1_time=t2 - t1,
                       pass2_time=t3 - t2,
                       partition_records=local_total,
                       n_runs=len(runs),
                       pass_restarts=p1_restarts + p2_restarts)


def _attempt_pass(comm: Comm, kernel, pass_name: str, retries: int,
                  run_fn: Callable[[int], None],
                  reset_fn: Callable[[], None]) -> int:
    """Run one dsort pass SPMD, restarting it cluster-wide on failure.

    Returns the number of restarts performed.  With ``retries == 0`` the
    pass runs exactly once and a failure propagates unwrapped — no extra
    collective traffic on the fault-free path.  Otherwise the ranks
    allgather their failure status after every attempt: if anyone's
    pipelines failed, every rank resets (``reset_fn``), synchronizes, and
    reruns the pass, up to ``retries`` restarts.
    """
    if retries <= 0:
        run_fn(0)
        return 0
    for attempt in range(retries + 1):
        failure: Optional[PipelineFailed] = None
        try:
            run_fn(attempt)
        except PipelineFailed as exc:
            failure = exc
        if all(comm.allgather(failure is None)):
            return attempt
        if attempt == retries:
            if failure is not None:
                raise failure
            raise SortError(
                f"dsort {pass_name} failed on a peer node after "
                f"{retries + 1} attempts")
        if comm.rank == 0 and kernel.metrics is not None:
            kernel.metrics.counter("recovery.pass_restarts").inc()
        reset_fn()
        # no rank may start resending before every rank finished draining
        comm.barrier()
    raise AssertionError("unreachable")


def _discard_runs(node: Node, run_prefix: str) -> None:
    """Delete every run file of the failed pass-1 attempt, including ones
    written by stages that died before registering them in ``state``."""
    prefix = run_prefix + "."
    for name in list(node.disk.names()):
        if name.startswith(prefix):
            node.disk.delete(name)


def _drain_stale(comm: Comm, tag: int) -> None:
    """Consume leftover messages of a failed pass attempt.

    Called after the failure allgather, so every sender has finished
    (successfully or by teardown): anything still matching ``tag`` is
    debris from this attempt and would corrupt the rerun's matching.
    """
    while comm.iprobe(tag=tag):
        comm.recv(tag=tag)


# -- fine-grained recovery path ----------------------------------------------


def _run_dsort_recover(node: Node, comm: Comm, schema: RecordSchema,
                       config: DsortConfig, mgr,
                       sched_point: Optional[Callable[[str], None]] = None
                       ) -> DsortReport:
    """dsort under a :class:`~repro.recover.RecoveryManager`.

    Same phases as the legacy path, but every collective from the end
    of pass 1 onward goes through the manager's dead-tolerant sync
    points, the passes build their checkpointing variants, and a node
    crash mid-pass-2 triggers a re-assignment epoch instead of wedging
    the cluster.  Scope: crashes are recoverable once pass 1 has
    completed (backup runs exist); a crash during sampling or pass 1
    aborts the run with a clear error, because the dead node's input
    partition only ever existed on its own disk.
    """
    from repro.recover import NodeDied

    kernel = node.kernel
    rank = comm.rank
    P = comm.size
    policy = mgr.policy
    rec_bytes = schema.record_bytes
    mgr.start()
    t0 = t1 = t2 = t3 = kernel.now()
    local_total = 0
    runs: list = []
    p1_restarts = p2_restarts = 0
    try:
        comm.barrier()
        t0 = kernel.now()
        splitters = select_splitters(node, comm, schema, config.input_file,
                                     oversample=config.oversample,
                                     seed=config.seed)
        comm.barrier()
        t1 = kernel.now()
        if sched_point is not None:
            sched_point("after-sampling")

        # -- pass 1: checkpointed runs + buddy backups --------------------
        jrn1 = Journal(node.disk, f"{config.run_prefix}.journal")
        slog = Journal(node.disk, f"{config.run_prefix}.sendlog")
        state: dict = {}

        def run_pass1(attempt: int) -> None:
            state.clear()
            durable_own: set = set()
            journaled: list = []
            if policy.checkpoint:
                for entry in jrn1.load():
                    journaled.extend(entry.get("runs", []))
            for run in journaled:
                durable_own.update((int(s), int(b)) for s, b in run["frags"])
                if run["bak"] is not None:
                    mgr.publish_backup_run(rank, run["k"], run["bak"][0],
                                           run["bak"][1], run["n"])
            mgr.publish_durable_frags(rank, durable_own)
            # every rank publishes what its journal proved durable before
            # any rank decides what it can skip re-sending
            mgr.barrier(f"p1.pub.a{attempt}", rank)
            sent_logged: set = set()
            skip_blocks: set = set()
            if policy.checkpoint:
                for entry in slog.load():
                    for b, dsts in entry.get("blocks", []):
                        sent_logged.add(int(b))
                        if all(mgr.is_dead(d)
                               or (rank, int(b)) in mgr.durable_frags(d)
                               for d in dsts):
                            skip_blocks.add(int(b))
            if attempt and journaled:
                mgr.decide("resume", rank,
                           f"pass 1 attempt {attempt}: {len(journaled)} "
                           f"runs journaled, {len(skip_blocks)} blocks "
                           "skipped")
            state["runs"] = [(run["name"], run["n"]) for run in journaled]
            state["next_run"] = (max((run["k"] for run in journaled),
                                     default=-1) + 1)
            mgr.pass_begin(f"p1.a{attempt}", TAG_PASS1,
                           {f"p{r}": r for r in range(P)}, schema)
            suffix = f".r{attempt}" if attempt else ""
            prog1 = FGProgram(kernel, env={"node": node, "comm": comm},
                              name=f"{config.name_prefix}-p1@{rank}{suffix}")
            build_pass1_recover(
                prog1, node, comm, schema, splitters,
                input_file=config.input_file,
                run_prefix=config.run_prefix,
                block_records=config.block_records,
                nbuffers=config.nbuffers, state=state, manager=mgr,
                journal=jrn1 if policy.checkpoint else None,
                sendlog=slog if policy.checkpoint else None,
                skip_blocks=frozenset(skip_blocks),
                sent_logged=sent_logged, durable_own=durable_own,
                sort_replicas=config.sort_replicas)
            prog1.run()

        def reset_pass1() -> None:
            # keep journaled runs and hosted backups; everything else on
            # this attempt's floor is debris
            journaled_names = {run[0] for run in state.get("runs", [])}
            prefix = config.run_prefix + "."
            keep = (f"{config.run_prefix}.bak", f"{config.run_prefix}.journal",
                    f"{config.run_prefix}.sendlog")
            for name in list(node.disk.names()):
                if (name.startswith(prefix) and name not in journaled_names
                        and not name.startswith(keep)):
                    node.disk.delete(name)
            _drain_stale(comm, TAG_PASS1)

        def on_retry_p1(newly_dead: list) -> None:
            if newly_dead:
                raise SortError(
                    f"node {newly_dead[0]} crashed during dsort pass 1; "
                    "its input partition is unrecoverable")

        p1_restarts, statuses = _attempt_pass_recover(
            mgr, comm, kernel, "p1", config.pass_retries, run_pass1,
            reset_pass1, on_retry_p1,
            payload_fn=lambda: sum(n for _, n in state.get("runs", [])),
            data_tag=TAG_PASS1)
        t2 = kernel.now()
        if sched_point is not None:
            sched_point("after-pass1")

        # -- pass 2: resumable merge under the current striping -----------
        runs = state.get("runs", [])
        local_total = sum(n for _, n in runs)
        # totals rode along on the pass-1 status sync, so they are known
        # for every rank — including one that dies later in pass 2
        totals = {r: int(statuses[r][1]) for r in range(P)}
        start_globals = {r: sum(totals[q] for q in range(r))
                         for r in range(P)}
        total_records = sum(totals.values())
        mlog = Journal(node.disk, f"{config.run_prefix}.mlog")
        p2_state: dict = {}

        def run_pass2(attempt: int) -> None:
            p2_state.clear()
            epoch = mgr.epoch
            owners = mgr.output_owners() or list(range(P))
            S = len(owners)
            my_records = striped_share(total_records,
                                       config.out_block_records, S,
                                       owners.index(rank))
            # epoch-keyed piece journal: output stripes from a previous
            # epoch were laid out under a striping that no longer exists
            jname = f"{config.output_file}.p2log.e{epoch}"
            stale = [n for n in node.disk.names()
                     if n.startswith(f"{config.output_file}.p2log.")
                     and n != jname]
            for n in stale:
                node.disk.delete(n)
            jrn2 = Journal(node.disk, jname)
            durable_own: set = set()
            expected_bytes = my_records * rec_bytes
            if (policy.checkpoint and not stale and jrn2.exists
                    and node.disk.exists(config.output_file)
                    and node.disk.size(config.output_file) == expected_bytes):
                for entry in jrn2.load():
                    durable_own.update((int(b), int(o))
                                       for b, o in entry.get("ps", []))
            else:
                jrn2.delete()
                node.disk.delete(config.output_file)
            node.disk.storage.truncate(config.output_file, expected_bytes)
            mgr.publish_durable_pieces(rank, durable_own)
            mgr.barrier(f"p2.pieces.e{epoch}.a{attempt}", rank)
            durable_all = mgr.durable_pieces()

            # resume the merge at the last journaled point whose every
            # preceding piece is durable at its owner
            my_pieces = pieces_of(start_globals[rank], totals[rank],
                                  config.out_block_records)
            K = 0
            for blk, off, _ in my_pieces:
                if (blk, off) in durable_all.get(owners[blk % S], ()):
                    K += 1
                else:
                    break
            resume = {"start_piece": 0, "positions": [0] * len(runs),
                      "emitted0": 0}
            if K > 0 and mlog.exists:
                for entry in mlog.load():
                    k = entry.get("k")
                    if (k is not None and k < K
                            and len(entry.get("pos", ())) == len(runs)
                            and k + 1 > resume["start_piece"]):
                        resume = {"start_piece": k + 1,
                                  "positions": [int(p)
                                                for p in entry["pos"]],
                                  "emitted0": int(entry["e"])}

            if attempt and K > 0:
                mgr.decide("resume", rank,
                           f"pass 2 epoch {epoch} attempt {attempt}: "
                           f"{K} pieces durable, merge resumes at piece "
                           f"{resume['start_piece']}")
            speculative = (epoch == 0 and policy.speculation is not None
                           and policy.backup_runs and P > 1)
            producers = {f"p{r}": r for r in owners}
            if speculative:
                producers.update(
                    {f"b{r}": mgr.buddy(r) for r in owners
                     if totals[r] > 0 and mgr.buddy(r) != r
                     and mgr.backup_runs_of(r)})
            for d, a in mgr.adopters().items():
                if totals.get(d, 0) > 0:
                    producers[f"a{d}"] = a
            mgr.pass_begin(f"p2.e{epoch}.a{attempt}", TAG_PASS2, producers,
                           schema, speculative=speculative)
            suffix = f".r{attempt}" if attempt else ""
            prog2 = FGProgram(kernel, env={"node": node, "comm": comm},
                              name=f"{config.name_prefix}-p2@{rank}"
                                   f".e{epoch}{suffix}")
            build_pass2_recover(
                prog2, node, comm, schema, manager=mgr,
                runs=[(name, 0, n) for name, n in runs],
                totals=totals, start_globals=start_globals, owners=owners,
                producers=producers, output_file=config.output_file,
                vertical_block_records=config.vertical_block_records,
                out_block_records=config.out_block_records,
                nbuffers=config.nbuffers, state=p2_state,
                durable_all=durable_all, durable_own=durable_own,
                resume=resume, jrn2=jrn2 if policy.checkpoint else None,
                mlog=mlog if policy.checkpoint else None,
                speculative=speculative)
            prog2.run()

        def reset_pass2() -> None:
            _drain_stale(comm, TAG_PASS2)
            mgr.reset_speculation()

        def on_retry_p2(newly_dead: list) -> None:
            if newly_dead:
                mgr.enter_epoch(rank)
            mgr.check_abort()

        p2_restarts, _ = _attempt_pass_recover(
            mgr, comm, kernel, "p2", config.pass_retries, run_pass2,
            reset_pass2, on_retry_p2, data_tag=TAG_PASS2)
        t3 = kernel.now()

        prefix = config.run_prefix + "."
        p2log_prefix = f"{config.output_file}.p2log."
        for name in list(node.disk.names()):
            if name.startswith(prefix) or name.startswith(p2log_prefix):
                node.disk.delete(name)
    except NodeDied:
        return DsortReport(rank=rank, sampling_time=t1 - t0,
                           pass1_time=t2 - t1, pass2_time=t3 - t2,
                           partition_records=local_total, n_runs=len(runs),
                           pass_restarts=p1_restarts + p2_restarts,
                           dead=True)
    finally:
        mgr.node_done(rank)
    return DsortReport(rank=rank, sampling_time=t1 - t0,
                       pass1_time=t2 - t1, pass2_time=t3 - t2,
                       partition_records=local_total, n_runs=len(runs),
                       pass_restarts=p1_restarts + p2_restarts)


def _attempt_pass_recover(mgr, comm: Comm, kernel, pass_name: str,
                          retries: int, run_fn: Callable[[int], None],
                          reset_fn: Callable[[], None],
                          on_retry: Optional[Callable[[list], None]] = None,
                          payload_fn: Optional[Callable[[], int]] = None,
                          data_tag: Optional[int] = None):
    """Run one pass under the recovery manager's dead-tolerant sync.

    Unlike :func:`_attempt_pass` this always runs the status exchange
    (a :meth:`RecoveryManager.sync_point`, which a crashed rank cannot
    wedge), treats a pipeline failure whose causes are *all*
    :class:`~repro.errors.SpeculationLost` as success (losing a
    speculation race is the mechanism working), and reports this rank's
    own death as :class:`~repro.recover.NodeDied`.

    The crash oracle is a function of virtual time, so two ranks asking
    "did anyone just die?" a tick apart can disagree; the retry verdict
    is therefore resolved exactly once through
    :meth:`RecoveryManager.resolve` and shared by every rank.
    ``on_retry`` runs on every live rank with the newly dead ranks
    before the reset (pass 2 enters a re-assignment epoch there).
    Returns ``(restarts, final statuses)``; with ``payload_fn``, each
    rank's ``"ok"`` status carries its payload, which is how pass-1
    totals reach every survivor without a post-pass collective a dead
    rank could block.
    """
    from repro.recover import NodeDied

    rank = comm.rank
    for attempt in range(retries + 1):
        # stable for the whole attempt: epoch transitions only happen
        # behind the reset barrier below
        epoch = mgr.epoch
        if mgr.is_dead(rank):
            raise NodeDied(f"node {rank} crashed before {pass_name} "
                           f"attempt {attempt}")
        failure: Optional[Exception] = None
        try:
            run_fn(attempt)
        except PipelineFailed as exc:
            if not all(isinstance(f.cause, SpeculationLost)
                       for f in exc.failures):
                failure = exc
        if mgr.is_dead(rank):
            status: tuple = ("dead",)
        elif failure is not None:
            status = ("fail",)
        else:
            status = ("ok", payload_fn() if payload_fn is not None else 0)
        # a failed rank's receive pipeline is gone: while it waits here
        # for peers still mid-attempt, it must keep draining its own
        # mailbox, or (under bounded mailboxes) a peer's send blocks
        # forever reserving space this rank no longer frees — debris
        # anyway, the rerun resends anything that never became durable
        drain = None
        if status[0] == "fail" and data_tag is not None:
            def drain(tag=data_tag):
                _drain_stale(comm, tag)
        statuses = mgr.sync_point(
            f"{pass_name}.status.e{epoch}.a{attempt}", rank, status,
            drain=drain)
        mgr.pass_end()

        def compute_verdict(statuses=statuses):
            newly_dead = sorted(r for r in mgr.alive if mgr.is_dead(r))
            live = [r for r in mgr.alive if not mgr.is_dead(r)]
            ok = (not newly_dead
                  and all(statuses.get(r, ("missing",))[0] == "ok"
                          for r in live))
            return {"ok": ok, "newly_dead": newly_dead, "live": live}

        verdict = mgr.resolve(f"{pass_name}.verdict.e{epoch}.a{attempt}",
                              compute_verdict)
        if mgr.is_dead(rank):
            raise NodeDied(f"node {rank} crashed during {pass_name}")
        if verdict["ok"]:
            return attempt, statuses
        if attempt == retries:
            if failure is not None:
                raise failure
            raise SortError(
                f"dsort {pass_name} failed on a peer node after "
                f"{retries + 1} attempts")
        if rank == min(verdict["live"]) and kernel.metrics is not None:
            kernel.metrics.counter("recovery.pass_restarts").inc()
        if on_retry is not None:
            on_retry(verdict["newly_dead"])
        reset_fn()
        # no rank may start resending before every rank finished draining
        mgr.barrier(f"{pass_name}.reset.e{epoch}.a{attempt}", rank)
    raise AssertionError("unreachable")
