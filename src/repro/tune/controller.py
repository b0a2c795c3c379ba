"""TuneController: in-run feedback control of replicas and buffer pools.

The controller is one more kernel process.  It wakes at a fixed interval
(the "round boundary" of the control loop), reads windowed signals from
the kernel's metrics registry — per-stage accepts and queue-wait deltas,
inbound-channel occupancy averages, buffers-in-flight averages — and
hands them to a pluggable :class:`TunePolicy`.  The policy returns
:class:`TuneAction` s, which the controller applies through the runtime
mechanisms of :class:`~repro.core.program.FGProgram`
(:meth:`~repro.core.program.FGProgram.add_replica`,
:meth:`~repro.core.program.FGProgram.add_buffers`,
:meth:`~repro.core.program.FGProgram.retire_buffers`) and records as
``tune`` trace instants plus ``tune.*`` metrics.

The default :class:`BacklogPolicy` implements the classic rule: replicate
the stage with the highest busy fraction when its inbound channel is
persistently backlogged (the stage is the bottleneck and parallel copies
can drain it), and grow the buffer pool when the source is persistently
starved of recycled buffers (the pool, not a stage, is the limit).  Both
rules carry hysteresis (``patience`` consecutive windows before acting,
``cooldown`` windows after acting) and hard caps, so one noisy window
cannot trigger runaway growth.

Everything runs on the cooperative kernel: the controller's reads and
actions are atomic between blocking points, and its wake times are
deterministic, so a controlled run is exactly reproducible.

Only stages *declared* replicated are controllable — declare
``replicas={"stage": 1}`` on the pipeline to wire the sequencer without
adding copies, then let the controller scale it.  See docs/TUNING.md.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError
from repro.sim.trace import TUNE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program import FGProgram

__all__ = ["BacklogPolicy", "PoolSignal", "StageSignal", "TuneAction",
           "TuneController", "TuneDecision", "TunePolicy", "TuneSample"]


@dataclasses.dataclass(frozen=True)
class StageSignal:
    """One replicated stage's activity over the last control window."""

    pipeline: str
    stage: str
    replicas: int          #: live replica count
    accepts: float         #: buffers accepted this window (all replicas)
    wait_seconds: float    #: replica-seconds spent blocked on input
    backlog: float         #: time-averaged inbound-channel occupancy
    backlog_limit: float   #: channel capacity (or pool size if unbounded)
    window: float          #: window length in kernel seconds

    @property
    def busy_fraction(self) -> float:
        """Fraction of replica time NOT spent waiting for input."""
        budget = self.window * max(1, self.replicas)
        if budget <= 0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.wait_seconds / budget))


@dataclasses.dataclass(frozen=True)
class PoolSignal:
    """One pipeline's buffer-pool pressure over the last control window."""

    pipeline: str
    nbuffers: int        #: current pool size
    in_flight: float     #: time-averaged buffers out of the pool

    @property
    def starvation(self) -> float:
        """1.0 when every buffer was in flight all window (source starved),
        0.0 when the pool always had spares."""
        if self.nbuffers <= 0:
            return 0.0
        return min(1.0, max(0.0, self.in_flight / self.nbuffers))


@dataclasses.dataclass(frozen=True)
class TuneSample:
    """Everything a policy sees at one round boundary."""

    t0: float
    t1: float
    stages: tuple[StageSignal, ...]
    pools: tuple[PoolSignal, ...]

    @property
    def window(self) -> float:
        return self.t1 - self.t0


@dataclasses.dataclass(frozen=True)
class TuneAction:
    """One decision a policy asks the controller to apply."""

    kind: str        #: "add_replica" | "add_buffers" | "retire_buffers"
    pipeline: str
    stage: str = ""  #: add_replica only
    count: int = 1   #: buffer actions only
    reason: str = ""


@dataclasses.dataclass(frozen=True)
class TuneDecision:
    """An applied (or rejected) action, stamped in kernel time."""

    time: float
    action: TuneAction
    applied: bool


class TunePolicy:
    """Interface: inspect one sample, return the actions to apply.

    Policies may keep state between calls (streak counters, cooldowns) —
    the controller calls ``decide`` exactly once per control window, in
    kernel-time order.
    """

    def decide(self, sample: TuneSample) -> list[TuneAction]:
        raise NotImplementedError


class BacklogPolicy(TunePolicy):
    """Replicate the busiest backlogged stage; grow a starved pool.

    Per window, at most ONE replica is added — to the eligible stage
    with the highest busy fraction among those whose inbound occupancy
    averaged at least ``backlog_depth`` for ``patience`` consecutive
    windows while the stage itself stayed at least ``busy_threshold``
    busy.  Pools grow by one buffer when ``starvation`` (in-flight over
    pool size) held at least ``starve_threshold`` for ``patience``
    windows.  ``shrink=True`` additionally retires one buffer from pools
    that stayed below half use for ``2 * patience`` windows (never below
    the pool's size at attach time).
    """

    def __init__(self, backlog_depth: float = 1.5,
                 busy_threshold: float = 0.5,
                 starve_threshold: float = 0.9,
                 patience: int = 2, cooldown: int = 2,
                 max_replicas: int = 4,
                 max_buffers: Optional[int] = None,
                 shrink: bool = False):
        if patience < 1 or cooldown < 0:
            raise ReproError("patience must be >= 1 and cooldown >= 0")
        self.backlog_depth = backlog_depth
        self.busy_threshold = busy_threshold
        self.starve_threshold = starve_threshold
        self.patience = patience
        self.cooldown = cooldown
        self.max_replicas = max_replicas
        self.max_buffers = max_buffers
        self.shrink = shrink
        self._streaks: dict[str, int] = {}
        self._cooldowns: dict[str, int] = {}
        self._floors: dict[str, int] = {}  #: pool size first seen

    def _streak(self, key: str, condition: bool) -> int:
        count = self._streaks.get(key, 0) + 1 if condition else 0
        self._streaks[key] = count
        return count

    def _ready(self, key: str) -> bool:
        return self._cooldowns.get(key, 0) <= 0

    def _acted(self, key: str) -> None:
        self._streaks[key] = 0
        self._cooldowns[key] = self.cooldown

    def decide(self, sample: TuneSample) -> list[TuneAction]:
        for key in list(self._cooldowns):
            if self._cooldowns[key] > 0:
                self._cooldowns[key] -= 1
        actions: list[TuneAction] = []

        # -- replication: one stage per window, the busiest backlogged one
        candidates = []
        for sig in sample.stages:
            key = f"replicate:{sig.pipeline}.{sig.stage}"
            hot = (sig.backlog >= min(self.backlog_depth, sig.backlog_limit)
                   and sig.busy_fraction >= self.busy_threshold)
            streak = self._streak(key, hot)
            if (hot and streak >= self.patience and self._ready(key)
                    and sig.replicas < self.max_replicas):
                candidates.append((sig, key))
        if candidates:
            sig, key = max(candidates,
                           key=lambda c: (c[0].busy_fraction, c[0].backlog))
            self._acted(key)
            actions.append(TuneAction(
                "add_replica", sig.pipeline, stage=sig.stage,
                reason=f"backlog {sig.backlog:.2f} >= "
                       f"{self.backlog_depth}, busy "
                       f"{sig.busy_fraction:.0%} for {self.patience} "
                       f"window(s)"))

        # -- pool sizing: grow on starvation, optionally shrink on idle
        for sig in sample.pools:
            self._floors.setdefault(sig.pipeline, sig.nbuffers)
            grow_key = f"grow:{sig.pipeline}"
            starved = sig.starvation >= self.starve_threshold
            streak = self._streak(grow_key, starved)
            capped = (self.max_buffers is not None
                      and sig.nbuffers >= self.max_buffers)
            if (starved and streak >= self.patience
                    and self._ready(grow_key) and not capped):
                self._acted(grow_key)
                actions.append(TuneAction(
                    "add_buffers", sig.pipeline,
                    reason=f"pool starved (in-flight "
                           f"{sig.in_flight:.2f}/{sig.nbuffers}) for "
                           f"{self.patience} window(s)"))
                continue
            if not self.shrink:
                continue
            shrink_key = f"shrink:{sig.pipeline}"
            idle = sig.starvation < 0.5
            sstreak = self._streak(shrink_key, idle)
            if (idle and sstreak >= 2 * self.patience
                    and self._ready(shrink_key)
                    and sig.nbuffers > self._floors[sig.pipeline]):
                self._acted(shrink_key)
                actions.append(TuneAction(
                    "retire_buffers", sig.pipeline,
                    reason=f"pool under half use (in-flight "
                           f"{sig.in_flight:.2f}/{sig.nbuffers})"))
        return actions


class TuneController:
    """Samples signals each ``interval`` and applies the policy's actions.

    Attach to a *started* program whose kernel has metrics enabled::

        registry = kernel.enable_metrics()
        prog.add_pipeline(..., replicas={"sort": 1})
        prog.start()
        controller = TuneController(prog, interval=0.002)
        controller.start()
        prog.wait()
        controller.decisions   # what it did, and why

    The controller exits on its own once the program finishes.
    """

    def __init__(self, program: "FGProgram", interval: float,
                 policy: Optional[TunePolicy] = None):
        if interval <= 0:
            raise ReproError(f"interval must be > 0, got {interval}")
        self.program = program
        self.kernel = program.kernel
        self.interval = interval
        self.policy = policy if policy is not None else BacklogPolicy()
        self.decisions: list[TuneDecision] = []
        self.samples: list[TuneSample] = []
        self._proc = None

    def decision_log(self) -> list[dict]:
        """The applied/rejected decisions as JSON-able data.

        This is the structured form of the ``tune`` trace instants that
        :func:`repro.prov.decision_log` harvests into provenance
        records; use it for direct inspection of a controller you own.
        """
        return [{"time": d.time, "kind": d.action.kind,
                 "pipeline": d.action.pipeline, "stage": d.action.stage,
                 "count": d.action.count, "reason": d.action.reason,
                 "applied": d.applied}
                for d in self.decisions]

    def start(self):
        """Spawn the control loop; returns its kernel process."""
        if not self.program._started:
            raise ReproError("TuneController needs a started program; "
                             "call program.start() first")
        if self.kernel.metrics is None:
            raise ReproError("TuneController reads windowed signals from "
                             "the metrics registry; call "
                             "kernel.enable_metrics() before the program "
                             "starts")
        if self._proc is not None:
            raise ReproError("controller already started")
        self._proc = self.kernel.spawn(
            self._run, name=f"{self.program.name}.tuner")
        return self._proc

    # -- signal collection ---------------------------------------------------

    def _counter_delta(self, name: str, t0: float, t1: float) -> float:
        metric = self.kernel.metrics.get(name)
        if metric is None or getattr(metric, "samples", None) is None:
            return 0.0
        return metric.window_delta(t0, t1)

    def _gauge_average(self, name: str, t0: float, t1: float) -> float:
        metric = self.kernel.metrics.get(name)
        if metric is None or getattr(metric, "samples", None) is None:
            return 0.0
        return metric.window_average(t0, t1)

    def sample(self, t0: float, t1: float) -> TuneSample:
        """Build one windowed sample (public for tests and custom loops)."""
        prog = self.program
        stages = []
        for rset in prog.replica_sets():
            if rset.finished or rset.live == 0:
                continue
            p, s = rset.pipeline, rset.stage
            in_q = prog.in_queue(p, s)
            prefix = f"fg.{prog.name}.stage.{s.name}"
            limit = (float(in_q.capacity) if in_q.capacity
                     else float(p.nbuffers))
            stages.append(StageSignal(
                pipeline=p.name, stage=s.name, replicas=rset.live,
                accepts=self._counter_delta(f"{prefix}.accepts", t0, t1),
                wait_seconds=self._counter_delta(
                    f"{prefix}.accept_wait_seconds", t0, t1),
                backlog=self._gauge_average(
                    f"channel.{in_q.name}.occupancy", t0, t1),
                backlog_limit=limit, window=t1 - t0))
        pools = []
        for p in prog.pipelines:
            pools.append(PoolSignal(
                pipeline=p.name, nbuffers=p.nbuffers,
                in_flight=self._gauge_average(
                    f"fg.{prog.name}.pipeline.{p.name}.buffers_in_flight",
                    t0, t1)))
        return TuneSample(t0, t1, tuple(stages), tuple(pools))

    # -- action application --------------------------------------------------

    def _pipeline_named(self, name: str):
        for p in self.program.pipelines:
            if p.name == name:
                return p
        raise ReproError(f"policy named unknown pipeline {name!r}")

    def _replica_unsafe(self, pipeline, stage_name: str) -> bool:
        """True when the effect analysis classifies the stage function
        as a shared-state writer: interchangeable copies would race on
        that state (FG110's dynamic twin), so the controller refuses to
        scale it no matter what the policy asked for."""
        from repro.check import dataflow

        stage = next((s for s in pipeline.stages
                      if s.name == stage_name), None)
        # asked afresh each time: the scan is cheap (bytecode is decoded
        # once per code object) and what the closure holds can change
        fn = getattr(stage, "fn", None)
        return dataflow.classify_fn(fn) == dataflow.WRITE_SHARED

    def apply(self, action: TuneAction) -> bool:
        """Apply one action; returns whether it took effect."""
        prog = self.program
        p = self._pipeline_named(action.pipeline)
        if action.kind == "add_replica":
            if self._replica_unsafe(p, action.stage):
                applied = False
                self.kernel.metrics.counter(
                    "tune.add_replica.unsafe").inc()
            else:
                applied = prog.add_replica(p, action.stage)
        elif action.kind == "add_buffers":
            prog.add_buffers(p, action.count)
            applied = True
        elif action.kind == "retire_buffers":
            applied = prog.retire_buffers(p, action.count) > 0
        else:
            raise ReproError(f"unknown tune action kind {action.kind!r}")
        now = self.kernel.now()
        self.decisions.append(TuneDecision(now, action, applied))
        registry = self.kernel.metrics
        registry.counter("tune.decisions").inc()
        registry.counter(f"tune.{action.kind}"
                         + ("" if applied else ".rejected")).inc()
        tracer = self.kernel.tracer
        if tracer is not None:
            target = action.stage or action.pipeline
            tracer.record(now, f"{prog.name}.tuner", TUNE,
                          f"{action.kind} {target}: {action.reason}")
        return applied

    # -- control loop --------------------------------------------------------

    def _run(self) -> None:
        last = self.kernel.now()
        while not self.program.finished:
            self.kernel.sleep(self.interval)
            now = self.kernel.now()
            if self.program.finished or now <= last:
                break
            sample = self.sample(last, now)
            self.samples.append(sample)
            for action in self.policy.decide(sample):
                self.apply(action)
            last = now
