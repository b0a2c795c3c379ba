"""FGProgram: pipeline assembly and execution.

This module is FG's "framework generator": given pipeline descriptions, it

1. detects **intersecting** pipelines (a stage object appearing in several
   pipelines gets one thread and per-pipeline queues),
2. groups **virtual** stages (one thread + one shared queue per group) and
   the pipelines they link into *families* sharing one source and one sink
   thread (any other pipeline is a family of one),
3. materializes buffer pools, inter-stage queues, and the sink-to-source
   recycling channels, and
4. spawns one kernel process per thread FG would create, runs them, and
   joins them.

The source/sink protocol:

* the **source** emits recycled buffers, stamping ``round``; for
  ``rounds=N`` it emits the caboose after N emissions; for ``rounds=None``
  it emits until a :class:`~repro.core.virtual.Stop` token arrives on the
  recycle channel;
* the **sink** recycles every data buffer back to the source and, on
  receiving the caboose, sends the Stop token (so unknown-length pipelines
  shut down cleanly).

Typical use, inside a per-node SPMD main::

    prog = FGProgram(kernel, env={"node": node, "comm": comm})
    prog.add_pipeline("work", [read, sort, write],
                      nbuffers=4, buffer_bytes=1 << 20, rounds=16)
    prog.run()

Buffer pools and replica counts are fixed at assembly.  **Stage
replication**: a stage declared in a pipeline's ``replicas`` mapping
runs as N interchangeable copies consuming from the shared inbound
channel; every accepted buffer takes a monotonically increasing
*ticket*, and a synthetic sequencer process restores ticket order before
the successor stage, so downstream observes exactly the single-copy
order.  The caboose terminates replicas by a live-counter relay (see
``_run_replica``).

Every buffer-lifecycle event (emit, accept, convey, drop, ...) is
announced to the observer, FGSan and FGRace from exactly one site here;
DESIGN.md's "Buffer lifecycle events" table lists them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.check import linter
from repro.check.dataflow import program_effects
from repro.check.linter import normalize_rule_ids
from repro.check.races import race_from_env
from repro.check.sanitizer import Sanitizer, sanitize_from_env
from repro.core.buffer import Buffer
from repro.core.context import StageContext
from repro.core.pipeline import Pipeline
from repro.core.stage import Stage, StageStats
from repro.core.virtual import Family, Stop, VirtualGroup
from repro.errors import (
    KernelShutdown,
    LintError,
    PipelineFailed,
    PipelineStructureError,
    StageError,
    StageFailure,
)
from repro.obs.observer import ProgramObserver
from repro.plan.ir import ProgramGraph
from repro.sim.channel import Channel
from repro.sim.kernel import Kernel, Process

__all__ = ["FGProgram", "ReplicaSet"]


class _Seq:
    """Reorder-channel envelope: ``buffer`` was accepted as ``ticket``.
    ``buffer`` is None when the replica dropped it (its map function
    returned None), so the sequencer must not wait for that ticket."""

    __slots__ = ("ticket", "buffer")

    def __init__(self, ticket: int, buffer: Optional[Buffer]) -> None:
        self.ticket = ticket
        self.buffer = buffer

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Seq #{self.ticket} {self.buffer!r}>"


class ReplicaSet:
    """Runtime state of one replicated stage (shared by its replicas).

    All counters are mutated between blocking points only, which the
    cooperative kernels make atomic.
    """

    def __init__(self, pipeline: Pipeline, stage: Stage,
                 seq_stage: Stage, reorder: Channel) -> None:
        self.pipeline = pipeline
        self.stage = stage
        #: synthetic sequencer stage (not part of the pipeline's stages)
        self.seq_stage = seq_stage
        #: replicas -> sequencer channel ((ticket, buffer) envelopes)
        self.reorder = reorder
        #: replicas currently accepting (the caboose relay counts this down)
        self.live = 0
        #: replicas declared (names the replica processes)
        self.total = 0
        #: next acceptance ticket (assigned without blocking after get())
        self.next_ticket = 0
        #: per-replica contexts, indexed by replica number
        self.contexts: list[StageContext] = []


class FGProgram:
    """A set of pipelines assembled and run together on one node."""

    def __init__(self, kernel: Kernel, env: Optional[dict[str, Any]] = None,
                 name: str = "fg", *,
                 lint: bool = True,
                 lint_ignore: Optional[Iterable[str]] = None,
                 sanitize: Optional[bool] = None,
                 race_detect: Optional[Union[bool, str]] = None) -> None:
        self.kernel = kernel
        self.env: dict[str, Any] = dict(env) if env else {}
        self.name = name
        self.pipelines: list[Pipeline] = []
        #: the single event path for stage stats and metrics (repro.obs)
        self.observer = ProgramObserver(self)
        # static lint gate: start() runs the structural rules unless
        # disabled per program (lint=False); suppress individual rules
        # with lint_ignore={"FG101", ...} or REPRO_LINT_IGNORE
        self._lint_enabled = lint
        self._lint_ignore = (normalize_rule_ids(
            lint_ignore, source="FGProgram(lint_ignore=...)")
            if lint_ignore else set())
        #: findings of the last lint pass (errors raise from start())
        self.lint_findings: list[Any] = []
        # FGSan: opt-in dynamic buffer-ownership sanitizer
        if sanitize is None:
            sanitize = sanitize_from_env()
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(self) if sanitize else None)
        # FGRace: opt-in happens-before race detector; True collects and
        # raises from wait(), "strict" additionally hard-fails on any
        # dynamic race the static effect analysis did not predict
        if race_detect is None:
            race_detect = race_from_env()
        if race_detect:
            self.kernel.enable_race_detection(
                strict=race_detect == "strict")
        #: optional hook fired once per stage failure, from inside the
        #: failing stage's process: ``hook(stage, pipelines, exc)``.  Used
        #: for cross-node compensation (e.g. dsort flushing end markers so
        #: peer receive stages are not left waiting on a dead sender).
        self.on_pipeline_failure: Optional[
            Callable[[Stage, list[Pipeline], BaseException], None]] = None
        #: the :class:`~repro.plan.plan.Plan` applied at start() (via
        #: ``kernel.plan`` or a direct ``plan.apply(program)``); its
        #: digest becomes part of the structural fingerprint
        self.applied_plan: Optional[Any] = None
        self._started = False
        self._procs: list[Process] = []
        # graceful-teardown state (see _stage_failed)
        self._failures: list[StageFailure] = []
        self._poisoned: set[int] = set()
        self._flushed: set[int] = set()
        # materialized at assembly:
        self._in_q: dict[tuple[int, int], Channel] = {}
        self._groups: dict[str, VirtualGroup] = {}
        #: every pipeline belongs to exactly one family (of one, unless
        #: virtual groups link it to others); in spawn order
        self._families: list[Family] = []
        self._family_of: dict[int, Family] = {}
        self._stage_eos: set[tuple[int, int]] = set()
        #: stage id -> (stage, the pipelines it serves), both in
        #: pipeline-definition order (spawn order follows it)
        self._owners: dict[int, tuple[Stage, list[Pipeline]]] = {}
        self._buffers: dict[int, list[Buffer]] = {}
        #: replica sets keyed by (id(pipeline), id(stage))
        self._replica_sets: dict[tuple[int, int], ReplicaSet] = {}

    # -- construction -----------------------------------------------------------

    def add_pipeline(self, name: str, stages: Sequence[Stage], *,
                     nbuffers: int, buffer_bytes: int,
                     rounds: Optional[int] = None,
                     aux_buffers: bool = False,
                     channel_capacity: Optional[int] = None,
                     replicas: Optional[Mapping[str, int]] = None,
                     role: Optional[str] = None
                     ) -> Pipeline:
        """Describe a pipeline; FG adds the source and sink itself.

        ``channel_capacity`` bounds every inter-stage queue of this
        pipeline (None keeps the historical unbounded queues); the sink
        and recycle channels stay unbounded so the recycling protocol
        never wedges.  ``replicas`` maps stage names to replica counts
        (see the module docstring; count 1 still wires the sequencer).
        """
        if self._started:
            raise PipelineStructureError(
                "cannot add pipelines after the program started")
        pipeline = Pipeline(name, stages, nbuffers=nbuffers,
                            buffer_bytes=buffer_bytes, rounds=rounds,
                            aux_buffers=aux_buffers,
                            channel_capacity=channel_capacity,
                            replicas=replicas, role=role)
        self.pipelines.append(pipeline)
        return pipeline

    # -- queue lookups (used by StageContext) -----------------------------------------

    def in_queue(self, pipeline: Pipeline, stage: Stage) -> Channel:
        """The queue feeding ``stage`` within ``pipeline``."""
        return self._in_q[(id(pipeline), id(stage))]

    def out_queue(self, pipeline: Pipeline, stage: Stage) -> Channel:
        """The queue ``stage`` conveys into within ``pipeline``.

        For a replicated stage this is the reorder channel feeding its
        sequencer; only the sequencer itself conveys into the true
        successor (see :meth:`_successor_queue`).
        """
        rset = self._replica_sets.get((id(pipeline), id(stage)))
        if rset is not None:
            return rset.reorder
        return self._successor_queue(pipeline, stage)

    def _successor_queue(self, pipeline: Pipeline, stage: Stage) -> Channel:
        """The queue of the stage after ``stage`` (or the sink queue)."""
        pos = pipeline.position_of(stage)
        if pos + 1 < len(pipeline.stages):
            nxt = pipeline.stages[pos + 1]
            return self._in_q[(id(pipeline), id(nxt))]
        return self._family_of[id(pipeline)].sink_queue

    def mark_stage_eos(self, pipeline: Pipeline, stage: Stage) -> None:
        """Record that ``stage`` declared end-of-stream on ``pipeline``
        (virtual-group dispatch drops that pipeline's later buffers)."""
        self._stage_eos.add((id(pipeline), id(stage)))

    def buffers_of(self, pipeline: Pipeline) -> list[Buffer]:
        """The buffer pool materialized for ``pipeline``."""
        return self._buffers[id(pipeline)]

    # -- assembly ---------------------------------------------------------------------

    def _unique_stages(self) -> list[Stage]:
        seen: dict[int, Stage] = {}
        for p in self.pipelines:
            for s in p.stages:
                seen.setdefault(id(s), s)
        return list(seen.values())

    def _validate_and_group(self) -> None:
        owners: dict[int, tuple[Stage, list[Pipeline]]] = {}
        for p in self.pipelines:
            group_keys_here: set[str] = set()
            for s in p.stages:
                _, pipes = owners.setdefault(id(s), (s, []))
                if not pipes or pipes[-1] is not p:
                    pipes.append(p)
                if not s.virtual:
                    continue
                if s.virtual_group in group_keys_here:
                    raise PipelineStructureError(
                        f"virtual group {s.virtual_group!r} appears twice "
                        f"in pipeline {p.name!r}")
                group_keys_here.add(s.virtual_group)
                group = self._groups.setdefault(
                    s.virtual_group, VirtualGroup(key=s.virtual_group))
                group.members.append((p, s))
        for stage, pipes in owners.values():
            if stage.virtual and len(pipes) > 1:
                raise PipelineStructureError(
                    f"virtual stage {stage.name!r} appears in several "
                    "pipelines; create one member instance per pipeline "
                    "with the same virtual_group instead")
            if (not stage.virtual and stage.style == "map"
                    and len(pipes) > 1):
                raise PipelineStructureError(
                    f"map-style stage {stage.name!r} is shared by "
                    f"{len(pipes)} pipelines; intersecting stages must be "
                    "full-control (Stage.source_driven)")
        self._owners = owners

    def _compute_families(self) -> None:
        """Union-find over pipelines linked by virtual groups; a
        pipeline with no virtual stage is a family of one, labelled by
        its own name."""
        parent: dict[int, int] = {id(p): id(p) for p in self.pipelines}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for group in self._groups.values():
            pipes = group.pipelines
            for other in pipes[1:]:
                union(id(pipes[0]), id(other))
        virtual_pids = {id(p) for g in self._groups.values()
                        for p in g.pipelines}
        roots: dict[int, Family] = {}
        lone: list[Family] = []
        shared: list[Family] = []
        # walk in pipeline-definition order: family numbering (and hence
        # channel names, thread names, traces) must not depend on id()
        # hashes
        for p in self.pipelines:
            if id(p) not in virtual_pids:
                family = Family(label=p.name, virtual=False)
                lone.append(family)
            else:
                root = find(id(p))
                family = roots.get(root)
                if family is None:
                    family = roots[root] = Family(
                        label=f"family{len(shared)}", virtual=True)
                    shared.append(family)
            family.pipelines.append(p)
            self._family_of[id(p)] = family
        # spawn order: the lone pipelines' source/sink pairs come first
        self._families = lone + shared

    def _plumb_family(self, family: Family) -> None:
        """Create ``family``'s sink queue and recycle channel, named (and
        for a lone pipeline, owned) as traces and deadlock reports expect."""
        base = f"{self.name}.{family.label}"
        family.sink_queue = Channel(
            self.kernel,
            name=f"{base}.sink" if family.virtual else f"{base}->sink")
        family.recycle = Channel(self.kernel, name=f"{base}.recycle")
        if not family.virtual:
            family.sink_queue.owner = family.recycle.owner = base
        family.sink_queue.consumers.add(f"{base}.sink")
        family.recycle.producers.add(f"{base}.sink")
        family.recycle.consumers.add(f"{base}.source")

    def _assemble(self) -> None:
        if not self.pipelines:
            raise PipelineStructureError("program has no pipelines")
        self._validate_and_group()
        self._compute_families()
        # shared queue and per-member contexts for virtual groups
        for group in self._groups.values():
            group.shared_queue = Channel(
                self.kernel, name=f"{self.name}.vgroup[{group.key}].in")
            for p, s in group.members:
                group.contexts[id(p)] = StageContext(self, s, [p])
        # channels are created in a fixed order (the Chrome trace's
        # counter tracks follow it): shared families first, a lone
        # pipeline's pair after its own stage queues
        for family in self._families:
            if family.virtual:
                self._plumb_family(family)
        # per-pipeline plumbing
        for p in self.pipelines:
            family = self._family_of[id(p)]
            for s in p.stages:
                if s.virtual:
                    queue = self._groups[s.virtual_group].shared_queue
                else:
                    queue = Channel(
                        self.kernel, capacity=p.channel_capacity,
                        name=f"{self.name}.{p.name}->{s.name}")
                    queue.owner = f"{self.name}.{p.name}"
                self._in_q[(id(p), id(s))] = queue
            if family.sink_queue is None:
                self._plumb_family(family)
            pool = [Buffer(p, i, p.buffer_bytes, with_aux=p.aux_buffers)
                    for i in range(p.nbuffers)]
            self._buffers[id(p)] = pool
            # Recycle channels are unbounded, so pre-filling never blocks.
            for buf in pool:
                family.recycle.put(buf)
            # replica sets: reorder channel + synthetic sequencer stage
            for s in p.stages:
                if not p.is_replicated(s):
                    continue
                seq_stage = Stage(f"{s.name}~seq", None, style="full")
                reorder = Channel(
                    self.kernel,
                    name=f"{self.name}.{p.name}.{s.name}~reorder")
                reorder.owner = f"{self.name}.{p.name}"
                rset = ReplicaSet(p, s, seq_stage, reorder)
                self._replica_sets[(id(p), id(s))] = rset
                rset.total = rset.live = p.replica_count(s)
                for idx in range(rset.total):
                    # label each replica on the channels it will use
                    # (wait-for analysis)
                    ctx = StageContext(self, s, [p])
                    ctx.replica = idx
                    rset.contexts.append(ctx)
                    name = self._replica_name(rset, idx)
                    self._in_q[(id(p), id(s))].consumers.add(name)
                    reorder.producers.add(name)
        self._register_waitfor_labels()
        if self.sanitizer is not None:
            self.sanitizer.install()

    def _spawn_name(self, stage: Stage) -> str:
        """The kernel-process name a stage runs under (see start())."""
        if stage.virtual:
            return f"{self.name}.vgroup[{stage.virtual_group}]"
        return f"{self.name}.{stage.name}"

    def _replica_name(self, rset: ReplicaSet, idx: int) -> str:
        return f"{self.name}.{rset.stage.name}[r{idx}]"

    def _seq_name(self, rset: ReplicaSet) -> str:
        return f"{self.name}.{rset.stage.name}~seq"

    def _register_waitfor_labels(self) -> None:
        """Tell every channel which process names produce into and
        consume from it, so a runtime deadlock report can extract the
        concrete wait-for cycle (see :mod:`repro.sim.waitfor`)."""
        for p in self.pipelines:
            family = self._family_of[id(p)]
            producer = f"{self.name}.{family.label}.source"
            for s in p.stages:
                queue = self._in_q[(id(p), id(s))]
                queue.producers.add(producer)
                rset = self._replica_sets.get((id(p), id(s)))
                if rset is None:
                    queue.consumers.add(self._spawn_name(s))
                    producer = self._spawn_name(s)
                else:  # the replicas labelled themselves
                    rset.reorder.consumers.add(self._seq_name(rset))
                    producer = self._seq_name(rset)
            family.sink_queue.producers.add(producer)

    # -- buffer lifecycle events: one site each, listeners called by name --------------
    # (observer, then FGSan, then FGRace; table in DESIGN.md.  emit,
    # recycle, drop and straggler have one caller, so those sites are
    # inline in the loops below)

    def _caboose(self, p: Pipeline) -> Buffer:
        """Mint ``p``'s end-of-stream marker (FGSan reports writes to it)."""
        return Buffer.caboose(p, self.sanitizer)

    def _accepted(self, stage: Stage, p: Pipeline, buf: Optional[Buffer],
                  wait: float) -> None:
        """The accept site.  Who counts a caboose is the caller's choice,
        pinned by the metrics digests: ``StageContext.accept`` does (map
        and full-control stages show ``accepts == conveys + 1``);
        replicas, the sequencer and virtual-group members return before
        this call.  ``buf`` is None for the sequencer's skipped ticket:
        an accept with nothing for the detectors to check."""
        self.observer.accepted(stage, wait)
        if buf is None:
            return
        if self.sanitizer is not None:
            self.sanitizer.on_accept(stage, p, buf)
        race = self.kernel.race
        if race is not None and not buf.is_caboose:
            # the stage fn never runs for the caboose — replaying its
            # effect set for one would fabricate an end-of-stream race
            race.on_stage_access(stage)

    def _convey(self, stage: Stage, buf: Buffer, queue: Channel,
                item: Any = None) -> None:
        """The convey site: ``buf`` goes into ``queue``, as itself or in
        ``item`` (a replica's ticketed envelope).  ``convey_caboose``'s
        minted caboose comes here too: FGSan ignores it, the count doesn't."""
        if self.sanitizer is not None:
            self.sanitizer.on_convey(stage, buf)
        queue.put(buf if item is None else item)
        self.observer.conveyed(stage, buf)

    # -- graceful teardown --------------------------------------------------------------

    def _stage_failed(self, stage: Stage, pipelines: Sequence[Pipeline],
                      exc: BaseException) -> None:
        """Poison ``pipelines`` after ``stage`` raised ``exc``.

        Runs in the failing stage's process.  Records the stage-level
        causal chain, conveys a caboose past the dead stage on every
        affected pipeline — so downstream stages drain, sinks send Stop,
        and sources wind down — and fires :attr:`on_pipeline_failure` for
        cross-node compensation.  Sibling pipelines keep running; the
        failure surfaces from :meth:`wait` as
        :class:`~repro.errors.PipelineFailed`.
        """
        for p in pipelines:
            self._poison(p, stage, exc, self.out_queue(p, stage))
        if self.on_pipeline_failure is not None:
            try:
                self.on_pipeline_failure(stage, list(pipelines), exc)
            except KernelShutdown:
                raise
            except BaseException:  # noqa: BLE001 - compensation is
                pass                # best-effort; the root cause is kept

    def _poison(self, p: Pipeline, stage: Stage, exc: BaseException,
                queue: Channel) -> None:
        """Record that ``stage`` failed ``p`` and put a caboose into
        ``queue``, past the dead stage, so the rest of ``p`` drains."""
        self._failures.append(StageFailure(p.name, stage.name, exc))
        self._poisoned.add(id(p))
        self.observer.poisoned(p)
        queue.put(self._caboose(p))

    def _flush_poisoned_source(self, p: Pipeline) -> None:
        """Emit one caboose into a poisoned pipeline so stages upstream
        of the dead one (still blocked accepting) drain and exit.  Only
        fires when the source had not emitted its natural caboose yet."""
        if id(p) in self._poisoned and id(p) not in self._flushed:
            self._flushed.add(id(p))
            self._in_q[(id(p), id(p.stages[0]))].put(self._caboose(p))

    # -- runner loops -------------------------------------------------------------------

    def _run_source_group(self, family: Family) -> None:
        pending: dict[int, Pipeline] = {id(p): p for p in family.pipelines}
        emitted: dict[int, int] = {id(p): 0 for p in family.pipelines}
        for p in list(family.pipelines):
            if p.rounds == 0:
                self._in_q[(id(p), id(p.stages[0]))].put(self._caboose(p))
                pending.pop(id(p))
        while pending:
            item = family.recycle.get()
            if isinstance(item, Stop):
                if id(item.pipeline) in pending:
                    self._flush_poisoned_source(item.pipeline)
                pending.pop(id(item.pipeline), None)
                continue
            p = item.pipeline
            pid = id(p)
            if pid not in pending:
                continue  # stale buffer of an already-finished pipeline
            item.clear()
            if self.sanitizer is not None:
                self.sanitizer.on_emit(p, item)
            item.round = emitted[pid]
            self.observer.emitted(p)
            first = self._in_q[(pid, id(p.stages[0]))]
            first.put(item)
            emitted[pid] += 1
            if p.rounds is not None and emitted[pid] == p.rounds:
                first.put(self._caboose(p))
                pending.pop(pid)

    def _run_sink_group(self, family: Family) -> None:
        remaining = {id(p) for p in family.pipelines}
        while remaining:
            buf = family.sink_queue.get()
            if buf.is_caboose:
                family.recycle.put(Stop(buf.pipeline))
                remaining.discard(id(buf.pipeline))
            else:
                if self.sanitizer is not None:
                    # checked against a pipeline this sink serves, so a
                    # buffer of any other is FGSan's cross_pipeline
                    self.sanitizer.on_recycle(
                        buf.pipeline if buf.pipeline in family.pipelines
                        else family.pipelines[0], buf)
                self.observer.recycled(buf.pipeline)
                family.recycle.put(buf)

    def _run(self, stages: Sequence[Stage], body: Callable[..., None],
             *args: Any) -> None:
        """What every stage process runs: ``body(*args)`` between the
        start and finish stamps of the ``stages`` it serves."""
        for s in stages:
            self.observer.stage_started(s)
        try:
            body(*args)
        finally:
            for s in stages:
                self.observer.stage_finished(s)

    def _apply(self, stage: Stage, ctx: StageContext,
               buf: Optional[Buffer] = None,
               ticket: Optional[int] = None) -> bool:
        """Call ``stage.fn`` — the one place a stage function's exception
        becomes a poisoned pipeline rather than a dead process (returns
        False).  A full-control function (no ``buf``) is its own loop; a
        map-style one is applied to an accepted ``buf``, and what it
        returns is conveyed, or what it abandons dropped — with a
        ``ticket`` (a replica), to the sequencer in an envelope."""
        try:
            out = stage.fn(ctx) if buf is None else stage.fn(ctx, buf)
        except KernelShutdown:
            raise
        except BaseException as exc:  # noqa: BLE001 - poison, not abort
            self._stage_failed(stage, ctx.pipelines, exc)
            return False
        if buf is None:
            return True
        if out is None:
            if self.sanitizer is not None:
                self.sanitizer.on_drop(stage, buf)
            if ticket is not None:
                self.out_queue(buf.pipeline, stage).put(_Seq(ticket, None))
        elif ticket is None:
            ctx.convey(out)
        else:
            self._convey(stage, out, self.out_queue(buf.pipeline, stage),
                         _Seq(ticket, out))
        return True

    def _run_map_stage(self, stage: Stage, ctx: StageContext) -> None:
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                ctx.forward(buf)
                return
            if not self._apply(stage, ctx, buf):
                return

    def _run_replica(self, rset: ReplicaSet, idx: int) -> None:
        """One copy of a replicated stage: a map loop that tickets every
        acceptance and hands the result to the sequencer.

        The ticket is taken with no blocking point between the channel
        get and the increment, so ticket order equals delivery order —
        exactly the order a single copy would have processed the buffers.
        """
        stage, p = rset.stage, rset.pipeline
        in_q = self._in_q[(id(p), id(stage))]
        while True:
            t0 = self.kernel.now()
            buf = in_q.get()
            wait = self.kernel.now() - t0
            if buf.is_caboose:
                # caboose relay: every sibling must see it once; the
                # last live replica forwards it to the sequencer (all
                # data envelopes are already in the reorder channel,
                # since each sibling conveyed before re-accepting)
                rset.live -= 1
                if rset.live > 0:
                    in_q.put(buf)
                else:
                    rset.reorder.put(buf)
                return
            ticket = rset.next_ticket
            rset.next_ticket += 1
            self._accepted(stage, p, buf, wait)
            if not self._apply(stage, rset.contexts[idx], buf, ticket):
                rset.live -= 1
                return

    def _run_sequencer(self, rset: ReplicaSet) -> None:
        """Restore ticket order downstream of a replica set.

        Envelopes arrive in completion order; the sequencer holds
        out-of-order ones (at most pool-size many) and releases
        consecutive tickets to the true successor queue.  A caboose ends
        the set: any still-held envelopes are flushed in ticket order
        first, so a poisoned teardown cannot strand buffers here.
        """
        stage, p, seq = rset.stage, rset.pipeline, rset.seq_stage
        out_q = self._successor_queue(p, stage)
        next_ticket = 0
        held: dict[int, Optional[Buffer]] = {}  # None = skipped

        def release(entry: Optional[Buffer]) -> None:
            if entry is not None:
                self._convey(seq, entry, out_q)

        try:
            while True:
                t0 = self.kernel.now()
                item = rset.reorder.get()
                wait = self.kernel.now() - t0
                if isinstance(item, Buffer):
                    if not item.is_caboose:
                        raise StageError(
                            f"sequencer of {stage.name!r} received a raw "
                            f"data buffer {item!r}; replicated stages "
                            "must not convey manually (FG109)")
                    for ticket in sorted(held):
                        release(held[ticket])
                    held.clear()
                    out_q.put(item)
                    return
                self._accepted(seq, p, item.buffer, wait)
                held[item.ticket] = item.buffer
                while next_ticket in held:
                    release(held.pop(next_ticket))
                    next_ticket += 1
        except KernelShutdown:
            raise
        except BaseException as exc:  # noqa: BLE001 - poison, not abort
            self._poison(p, seq, exc, out_q)

    def _run_virtual_group(self, group: VirtualGroup) -> None:
        live = {id(p) for p in group.pipelines}
        while live:
            # shared-queue wait is attributed to the member whose
            # buffer ended it — the best available approximation
            t0 = self.kernel.now()
            buf = group.shared_queue.get()
            wait = self.kernel.now() - t0
            pid = id(buf.pipeline)
            stage = group.member_stage(pid)
            declared_eos = (pid, id(stage)) in self._stage_eos
            if pid not in live or (declared_eos and not buf.is_caboose):
                # the buffer raced past its pipeline's shutdown, or
                # past the member's own end-of-stream: dropped
                if self.sanitizer is not None:
                    self.sanitizer.on_straggler(buf)
                continue
            if buf.is_caboose:
                self.out_queue(buf.pipeline, stage).put(buf)
                live.discard(pid)
                continue
            self._accepted(stage, buf.pipeline, buf, wait)
            if (not self._apply(stage, group.contexts[pid], buf)
                    or (pid, id(stage)) in self._stage_eos):
                live.discard(pid)

    # -- execution ------------------------------------------------------------------------

    def lint(self, ignore: Optional[Iterable[str]] = None, *,
             graph: Optional[ProgramGraph] = None) -> list[Any]:
        """Run every static lint rule over this program's declared
        structure, the effect-driven FG110 and FG111 included.

        Returns the findings (also stored on :attr:`lint_findings`).
        :meth:`start` runs the structural rules itself.
        """
        return self._lint(linter.CHECKS, ignore, graph)

    def _lint(self, checks: tuple[linter.Check, ...],
              ignore: Optional[Iterable[str]],
              graph: Optional[ProgramGraph]) -> list[Any]:
        merged = set(self._lint_ignore)
        if ignore:
            merged.update(ignore)
        report = linter._run_checks(self, checks, merged, graph)
        self.lint_findings = list(report)
        if linter.COLLECTOR is not None:
            linter.COLLECTOR.append((self.name, list(report)))
        return self.lint_findings

    def start(self) -> list[Process]:
        """Assemble and spawn every FG thread; returns the processes.

        The static linter's structural rules
        (:mod:`repro.check.linter`) run first; error-severity findings
        raise :class:`~repro.errors.LintError` before any process is
        spawned.
        """
        if self._started:
            raise PipelineStructureError("program already started")
        self._started = True
        # a Plan installed on the kernel (run_sort(plan=...), or
        # plan.install(kernel)) stamps this program, so its structural
        # fingerprint carries the plan's digest; the stages stay as
        # declared (a plan's geometry arrives through the sorter config)
        if self.kernel.plan is not None:
            self.kernel.plan.apply(self)
        # one graph of the declared program, shared by the linter,
        # FGRace and the provenance fingerprint.  The effect scan runs
        # only where something reads it: FGRace, and the effect rules,
        # which start() runs only under ``repro lint`` (its collector
        # is armed); they are warnings and never stop a run
        race = self.kernel.race
        graph = None
        if (self._lint_enabled or race is not None
                or self.kernel.provenance is not None):
            graph = ProgramGraph.from_program(self)
        if self._lint_enabled:
            findings = self._lint(
                linter.STRUCTURAL_CHECKS if linter.COLLECTOR is None
                else linter.CHECKS, None, graph)
            errors = [f for f in findings if f.is_error]
            if errors:
                raise LintError(findings)
        if race is not None:
            race.register_program(program_effects(graph))
        self._assemble()
        self.observer.program_started(graph)
        procs: list[Process] = []
        for family in self._families:
            procs.append(self.kernel.spawn(
                self._run_source_group, family,
                name=f"{self.name}.{family.label}.source"))
            procs.append(self.kernel.spawn(
                self._run_sink_group, family,
                name=f"{self.name}.{family.label}.sink"))
        for group in self._groups.values():
            procs.append(self.kernel.spawn(
                self._run, [s for _, s in group.members],
                self._run_virtual_group, group,
                name=f"{self.name}.vgroup[{group.key}]"))
        replicated: set[int] = set()
        for rset in self._replica_sets.values():
            replicated.add(id(rset.stage))
            for idx in range(rset.total):
                procs.append(self.kernel.spawn(
                    self._run, [rset.stage], self._run_replica, rset, idx,
                    name=self._replica_name(rset, idx)))
            procs.append(self.kernel.spawn(
                self._run, [rset.seq_stage], self._run_sequencer, rset,
                name=self._seq_name(rset)))
        for stage, pipes in self._owners.values():
            if stage.virtual or id(stage) in replicated:
                continue
            ctx = StageContext(self, stage, pipes)
            body = self._run_map_stage if stage.style == "map" else self._apply
            procs.append(self.kernel.spawn(
                self._run, [stage], body, stage, ctx,
                name=f"{self.name}.{stage.name}"))
        self._procs = procs
        return procs

    def wait(self) -> None:
        """Join every FG process (call from inside a kernel process).

        When stages failed, the surviving pipelines first run to
        completion; then stranded buffers are drained back to their
        pools and :class:`~repro.errors.PipelineFailed` is raised with
        the stage-level causal chain.

        Either way the buffer pools end here: once every process has
        joined nothing can read a buffer again, so each one drops its
        arrays (:meth:`Buffer.release`) and the pool's bytes are free
        when this returns or raises, while the program object — its
        declarations, stats and :meth:`report` — stays usable.
        """
        for proc in self._procs:
            proc.join()
        try:
            if self._failures:
                self._drain_poisoned()
                raise PipelineFailed(list(self._failures))
            if self.sanitizer is not None:
                # leak check only on clean runs: poisoned pipelines park
                # their buffers through _drain_poisoned instead
                self.sanitizer.check_teardown()
            if self.kernel.race is not None:
                self.kernel.race.check_teardown()
        finally:
            for pool in self._buffers.values():
                for buf in pool:
                    buf.release()

    def _drain_poisoned(self) -> None:
        """Return buffers stranded in poisoned pipelines' queues to their
        pools.  Runs after every FG process joined, so the queues are
        inert; shared (family/group) queues are drained once."""
        seen: set[int] = set()
        drained: dict[int, int] = {}
        for p in self.pipelines:
            if id(p) not in self._poisoned:
                continue
            queues = [self._in_q[(id(p), id(s))] for s in p.stages]
            queues.extend(rset.reorder
                          for (pid, _), rset in self._replica_sets.items()
                          if pid == id(p))
            queues.append(self._family_of[id(p)].sink_queue)
            for q in queues:
                if id(q) in seen:
                    continue
                seen.add(id(q))
                while True:
                    ok, item = q.try_get()
                    if not ok:
                        break
                    if isinstance(item, _Seq):
                        item = item.buffer
                    if isinstance(item, Buffer) and not item.is_caboose:
                        owner = item.pipeline
                        self._family_of[id(owner)].recycle.put(item)
                        drained[id(owner)] = drained.get(id(owner), 0) + 1
        for p in self.pipelines:
            count = drained.get(id(p), 0)
            if count:
                self.observer.drained(p, count)

    def run(self) -> None:
        """``start()`` + ``wait()`` — the usual way to execute a program."""
        self.start()
        self.wait()

    # -- introspection -------------------------------------------------------------------------

    def replica_sets(self) -> list[ReplicaSet]:
        """Every replica set of this program (assembled at start)."""
        return list(self._replica_sets.values())

    @property
    def finished(self) -> bool:
        """True once every spawned FG process has exited."""
        return self._started and all(not proc.alive for proc in self._procs)

    @property
    def thread_count(self) -> int:
        """Number of FG threads (processes) this program spawned —
        the quantity Figure 5(b)'s virtual stages reduce from Θ(k) to Θ(1)."""
        return len(self._procs)

    def stage_stats(self) -> dict[str, StageStats]:
        """Per-stage statistics, keyed by stage name."""
        return {s.name: s.stats for s in self._unique_stages()}

    @property
    def total_buffer_bytes(self) -> int:
        """Memory held by every pipeline's buffer pool (aux included) —
        the quantity the paper promises "fits within the physical RAM"
        because pools are small and fixed."""
        total = 0
        for p in self.pipelines:
            per_buffer = p.buffer_bytes * (2 if p.aux_buffers else 1)
            total += p.nbuffers * per_buffer
        return total

    def report(self) -> str:
        """Text summary of per-stage activity after a run."""
        lines = [f"FG program {self.name!r}: "
                 f"{len(self.pipelines)} pipeline(s), "
                 f"{self.thread_count} thread(s), "
                 f"{self.total_buffer_bytes} buffer byte(s)"]
        header = (f"{'stage':24s} {'accepts':>8s} {'conveys':>8s} "
                  f"{'wait(s)':>10s} {'busy(s)':>10s}")
        lines.append(header)
        lines.append("-" * len(header))
        for name, stats in self.stage_stats().items():
            lines.append(f"{name:24s} {stats.accepts:8d} "
                         f"{stats.conveys:8d} {stats.accept_wait:10.4f} "
                         f"{stats.busy:10.4f}")
        return "\n".join(lines)
