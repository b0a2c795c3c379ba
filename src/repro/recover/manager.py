"""The recovery manager: fine-grained fault recovery for dsort.

:class:`RecoveryManager` sits between the fault injector and the sorter
the way the injector sits between the plan and the cluster: it is a
harness-level *control plane*.  Its polls, gates, and bookkeeping move no
modeled bytes and charge no modeled seconds — every piece of **data**
recovery touches (run files, backups, journals, output stripes) still
flows through the timed disk and network models and remains subject to
fault injection.

One manager instance is shared by all ranks of a run.  It provides:

* **death detection** — the injector's crash schedule is a pure function
  of virtual time, so :meth:`is_dead` is an oracle; a watchdog process
  notices deaths the tick they happen and *compensates* in-flight passes
  by injecting end-of-stream markers through each survivor's loopback
  channel (loopback skips the NIC and cannot fault), so no receive stage
  ever blocks forever on a rank that will never send again;
* **dead-tolerant synchronization** — :meth:`sync_point` replaces the
  collectives a crashed rank would wedge (``comm.barrier`` gathers to
  rank 0); a sync point waits only for ranks that are still alive;
* **speculation** — a watcher samples per-rank merge progress gauges and
  opens a straggler's :meth:`backup_wait` gate after a policy-defined
  streak of lagging samples; :meth:`range_complete` decides the race
  (first contender wins, exactly once);
* **re-assignment epochs** — :meth:`enter_epoch` retires dead ranks,
  assigns each dead rank's partition range to its backup buddy, and
  re-stripes the output over the survivors (:meth:`output_owners`);
* **a decision log** — every recovery decision is an entry of the
  manager's :class:`~repro.prov.record.DecisionLog`, a ``recovery.*``
  counter and a ``recover`` trace instant; the chaos harness reports the
  entries and hands the log to provenance, which replay compares.

Everything the manager does is deterministic: polls advance in fixed
ticks of virtual time, state transitions depend only on virtual time and
on the order rank processes reach their own deterministic code, and the
kernel serializes all of it.

The waits are :meth:`Kernel.poll <repro.sim.kernel.Kernel.poll>` calls
— :meth:`backup_wait`, :meth:`sync_point` without a ``drain``, and the
watchdog between ticks that have work (:meth:`_has_work`) — so under the
virtual-time kernel the *scheduler* evaluates their predicates and a tick
that finds nothing wakes no thread.  A predicate therefore only reads:
manager state, the crash oracle (``injector.crashed``, which reads
``kernel.now()``) and the cluster's size.  It takes no lock, blocks on
nothing, calls no ``current_process()`` and records no decision, trace
event or metric (:mod:`repro.sim.kernel`, "Polls").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import ReproError, SortError
from repro.prov.record import DecisionLog
from repro.recover.policy import RecoverPolicy
from repro.sim.trace import RECOVER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import Gauge

__all__ = ["NodeDied", "RecoveryManager"]


class NodeDied(ReproError):
    """Raised in a rank's top-level SPMD code once its node has crashed.

    Not a failure of the *run*: the driver catches it and returns a
    ``dead`` report for the rank while the survivors finish.
    """


class RecoveryManager:
    """Shared control plane for one recovering dsort run."""

    def __init__(self, cluster, policy: Optional[RecoverPolicy] = None):
        self.cluster = cluster
        self.policy = policy if policy is not None else RecoverPolicy()
        self.kernel = cluster.kernel
        self.injector = cluster.injector
        n = cluster.n_nodes
        #: entries ``{time, kind, rank, detail}``
        self.decisions = DecisionLog(self.kernel, RECOVER,
                                     "recover.manager", counter="recovery")
        #: ``recovery.progress.<rank>`` gauges, looked up at first use
        self._m_progress: dict[int, "Gauge"] = {}
        self._resolved: dict[str, Any] = {}
        #: current epoch's participating ranks, in stripe order
        self.alive: list[int] = list(range(n))
        self.epoch = 0
        self._done: set[int] = set()
        self._sync: dict[str, dict[int, Any]] = {}
        # durable state published by ranks during resume:
        #   dst -> {(src rank, pass-1 block)} fragments dst holds durably
        self._durable_frags: dict[int, set[tuple[int, int]]] = {}
        #   owner -> {run index -> (segment file, start record, records)}
        self._backup_runs: dict[int, dict[int, tuple[str, int, int]]] = {}
        #   owner -> {(global block, offset)} output pieces already written
        self._durable_pieces: dict[int, set[tuple[int, int]]] = {}
        # in-flight pass (set by pass_begin/pass_end): the watchdog needs
        # the tag + producer->host map to compensate for deaths
        self._active: Optional[dict[str, Any]] = None
        self._compensated: set[tuple[str, int]] = set()
        # speculation state: gates opened, races decided
        self._gate: set[int] = set()
        self._winner: dict[int, str] = {}
        self._streak: dict[int, int] = {}
        self._next_watch = 0.0
        # re-assignment state
        self._adopters: dict[int, int] = {}
        self._epoch_entered: set[tuple[int, tuple[int, ...]]] = set()
        self._abort: Optional[str] = None
        self._proc = None

    # -- liveness ------------------------------------------------------------

    def is_dead(self, rank: int) -> bool:
        """Crash oracle: the injector's schedule is pure virtual time."""
        return self.injector is not None and self.injector.crashed(rank)

    def dead_ranks(self) -> list[int]:
        return [r for r in range(self.cluster.n_nodes) if self.is_dead(r)]

    def alive_now(self) -> list[int]:
        """Current epoch's ranks that are still alive, in stripe order."""
        return [r for r in self.alive if not self.is_dead(r)]

    def buddy(self, rank: int) -> int:
        """The node holding ``rank``'s backup runs (fixed at pass-1 time)."""
        return (rank + 1) % self.cluster.n_nodes

    # -- decision log --------------------------------------------------------

    def decide(self, kind: str, rank: int, detail: str = "") -> None:
        """Record one recovery decision (log + counter + trace instant)."""
        self.decisions.append(
            {"time": self.kernel.now(), "kind": kind, "rank": rank,
             "detail": detail},
            f"{kind} rank={rank}" + (f": {detail}" if detail else ""))

    # -- dead-tolerant synchronization ---------------------------------------

    def sync_point(self, name: str, rank: int, value: Any,
                   drain: Optional[Callable[[], None]] = None
                   ) -> dict[int, Any]:
        """Contribute ``value`` and wait for every *live* rank's value.

        The recovery replacement for ``comm.allgather``: a crashed rank
        is dropped from the wait set the tick it dies, so survivors
        never wedge on it.  Returns the full slot (crashed ranks that
        contributed before dying included).  Deterministic: the slot
        only grows, the wait set only shrinks, and every live rank has
        contributed before any rank returns.

        ``drain`` runs once per wait iteration while the slot is still
        incomplete.  A rank whose pass attempt failed passes a mailbox
        drain here: its receive pipeline is gone, and under bounded
        mailboxes a peer mid-attempt would otherwise block forever
        reserving space this rank no longer frees.  Incomplete-slot
        iterations only — once every rank contributed, a peer may
        already have restarted, and its fresh messages must survive.
        """
        slot = self._sync.setdefault(name, {})
        slot[rank] = value

        def complete() -> bool:
            return all(r in slot for r in self.alive if not self.is_dead(r))

        if drain is None:
            self.kernel.poll(complete, self.policy.tick)
        else:  # a draining rank has work on every tick: no poll
            while not complete():
                drain()
                self.kernel.sleep(self.policy.tick)
        return dict(slot)

    def barrier(self, name: str, rank: int) -> None:
        """A dead-tolerant barrier (a sync point that carries no value)."""
        self.sync_point(name, rank, True)

    def resolve(self, name: str, fn) -> Any:
        """Compute-once agreement: the first caller stores ``fn()``'s
        result under ``name``; every later caller reads the stored copy.

        The crash oracle is a function of virtual time, so two ranks
        evaluating "who just died?" a tick apart can disagree — and a
        control-flow decision they disagree on (retry or not?) wedges
        the cluster.  Ranks instead resolve such decisions through this
        method right after a sync point: whoever the kernel happens to
        wake first decides for everyone, deterministically.
        """
        if name not in self._resolved:
            self._resolved[name] = fn()
        return self._resolved[name]

    # -- watchdog + speculation watcher --------------------------------------

    def start(self) -> None:
        """Spawn the manager's control process (idempotent)."""
        if self._proc is None:
            self._proc = self.kernel.spawn(self._run, name="recover.manager")

    def _run(self) -> None:
        n = self.cluster.n_nodes
        tick = self.policy.tick
        while len(self._done) < n:
            if self._active is not None:
                self._compensate_deaths()
                if self._active is not None and self._active["speculative"]:
                    self._watch_stragglers()
            self.kernel.sleep(tick)
            self.kernel.poll(self._has_work, tick)

    def _has_work(self) -> bool:
        """True at every tick where :meth:`_run`'s body would act (and at
        some where it would not): every rank done, a death the active
        pass has not compensated, or a speculative pass's sample due.
        The watchdog's poll predicate, so read-only."""
        if len(self._done) >= self.cluster.n_nodes:
            return True
        act = self._active
        if act is None:
            return False
        if act["speculative"] and self.kernel.now() >= self._next_watch:
            return True
        return any((act["id"], d) not in self._compensated
                   for d in self.dead_ranks())

    def pass_begin(self, pass_id: str, tag: int, producers: dict[str, int],
                   schema, speculative: bool = False) -> None:
        """Arm the watchdog for one pass attempt (idempotent per id).

        ``producers`` maps logical producer ids (the ``producer`` field
        of end-marker metadata) to the rank hosting each one; the
        watchdog replays exactly the end markers a dead host can no
        longer send.
        """
        if self._active is not None and self._active["id"] == pass_id:
            return
        self._active = {"id": pass_id, "tag": tag,
                        "producers": dict(producers), "schema": schema,
                        "speculative": bool(speculative)}

    def pass_end(self, pass_id: Optional[str] = None) -> None:
        """Disarm the watchdog (``None`` disarms whatever is active).

        Only call this behind a cluster-wide sync: every live rank must
        have finished the attempt, or a straggler's receive stage loses
        its death compensation.
        """
        if self._active is not None and (pass_id is None
                                         or self._active["id"] == pass_id):
            self._active = None

    def _compensate_deaths(self) -> None:
        act = self._active
        assert act is not None
        for d in self.dead_ranks():
            key = (act["id"], d)
            if key in self._compensated:
                continue
            self._compensated.add(key)
            self.decide("node_dead", d, f"during {act['id']}")
            hosted = sorted(pid for pid, host in act["producers"].items()
                            if host == d)
            schema, tag = act["schema"], act["tag"]
            # unblock every survivor: markers the dead host will never
            # send, injected through each receiver's own loopback
            # channel (src == dst skips the NIC entirely — the
            # compensation path cannot itself fault or stall)
            for pid in hosted:
                for s in range(self.cluster.n_nodes):
                    if s == d or self.is_dead(s):
                        continue
                    self.cluster.comms[s].send(s, schema.empty(0), tag=tag,
                                               meta={"producer": pid})
            # and unblock the dead rank itself: survivors skip sends to
            # a dead destination, so without these its receive stage
            # would wait forever and its process would never wind down
            for pid in sorted(act["producers"]):
                self.cluster.comms[d].send(d, schema.empty(0), tag=tag,
                                           meta={"producer": pid})

    def _watch_stragglers(self) -> None:
        spec = self.policy.speculation
        metrics = getattr(self.kernel, "metrics", None)
        if spec is None or metrics is None:
            return
        now = self.kernel.now()
        if now < self._next_watch:
            return
        self._next_watch = now + spec.interval
        gauges = self._m_progress
        progress: dict[int, float] = {}
        for r in self.alive_now():
            gauge = gauges.get(r)
            if gauge is None:
                gauge = gauges[r] = metrics.gauge(f"recovery.progress.{r}")
            progress[r] = gauge.value
        if not progress:
            return
        levels = sorted(progress.values())
        median = levels[len(levels) // 2]
        if median < spec.min_progress:
            return
        for r, p in sorted(progress.items()):
            if r in self._gate or r in self._winner or p >= 1.0:
                continue
            if p < spec.lag_ratio * median:
                self._streak[r] = self._streak.get(r, 0) + 1
                if self._streak[r] >= spec.patience:
                    self._gate.add(r)
                    self.decide("speculate", r,
                                f"progress {p:.2f} vs median {median:.2f}")
            else:
                self._streak[r] = 0

    # -- the speculation race ------------------------------------------------

    def backup_wait(self, rank: int) -> str:
        """Park a backup merge until its fate is known.

        Returns ``"activate"`` when the watcher opened ``rank``'s gate
        (race the primary) or ``"standdown"`` when the primary already
        won or crashed (a crash is the re-assignment mechanism's job —
        the epoch restart merges from the same backups with a clean
        survivor striping).
        """
        def standdown() -> bool:
            return rank in self._winner or self.is_dead(rank)

        self.kernel.poll(lambda: standdown() or rank in self._gate,
                         self.policy.tick)
        return "standdown" if standdown() else "activate"

    def range_complete(self, rank: int, contender: str) -> bool:
        """First contender to merge ``rank``'s range wins, exactly once."""
        if rank in self._winner:
            return self._winner[rank] == contender
        self._winner[rank] = contender
        who = "primary" if contender == "p" else "backup"
        self.decide("winner", rank, f"{who} finished the range first")
        return True

    def winner_of(self, rank: int) -> Optional[str]:
        return self._winner.get(rank)

    def reset_speculation(self) -> None:
        """Void all race state between pass attempts.

        Without this, a backup that won a range in an attempt that then
        failed for an unrelated reason would make the retried primary
        lose the race forever.  Safe to call between attempts only: the
        pass is not active, so the watcher cannot re-gate mid-reset.
        """
        self._winner = {}
        self._gate = set()
        self._streak = {}

    # -- durable-state registry (published during resume) --------------------

    def publish_durable_frags(self, dst: int,
                              keys: Sequence[tuple[int, int]]) -> None:
        """``dst`` holds these pass-1 ``(src, block)`` fragments durably."""
        self._durable_frags.setdefault(dst, set()).update(
            (int(s), int(b)) for s, b in keys)

    def durable_frags(self, dst: int) -> set[tuple[int, int]]:
        return self._durable_frags.get(dst, set())

    def publish_backup_run(self, owner: int, index: int, name: str,
                           start: int, records: int) -> None:
        """Run ``index`` of ``owner`` is durable in backup segment
        ``name`` at record offset ``start`` (runs are batched into
        segment files so replication costs one disk seek per batch,
        not one per run)."""
        self._backup_runs.setdefault(owner, {})[index] = (name, start,
                                                          records)

    def backup_runs_of(self, owner: int) -> list[tuple[str, int, int]]:
        """(segment file, start record, records) of ``owner``'s backed-up
        runs, in run order."""
        runs = self._backup_runs.get(owner, {})
        return [runs[k] for k in sorted(runs)]

    def publish_durable_pieces(self, owner: int,
                               pieces: Sequence[tuple[int, int]]) -> None:
        """``owner`` wrote these output ``(block, offset)`` pieces durably
        under the *current* epoch's striping."""
        self._durable_pieces.setdefault(owner, set()).update(
            (int(b), int(o)) for b, o in pieces)

    def durable_pieces(self) -> dict[int, set[tuple[int, int]]]:
        return {r: set(p) for r, p in self._durable_pieces.items()}

    # -- re-assignment epochs ------------------------------------------------

    def enter_epoch(self, rank: int) -> None:
        """Retire newly dead ranks and re-stripe over the survivors.

        Called by every surviving rank after a failed pass-2 attempt;
        the first caller performs the transition, the rest observe it
        (the dead set is empty on their recomputation).  Requires the
        ``reassign`` policy; a crash the policy cannot absorb — no
        backups, or a dead rank whose buddy also died — sets the abort
        reason every rank raises from :meth:`check_abort`.
        """
        dead = sorted(r for r in self.alive if self.is_dead(r))
        key = (self.epoch, tuple(dead))
        if key in self._epoch_entered or not dead:
            return
        self._epoch_entered.add(key)
        if not (self.policy.backup_runs and self.policy.reassign):
            self._abort = (f"node {dead[0]} crashed and the policy has no "
                           "reassign mechanism")
            return
        for d, a in self._adopters.items():
            if a in dead:
                self._abort = (f"node {a} crashed while holding node {d}'s "
                               "adopted backups; the runs are gone")
                return
        for d in dead:
            adopter = self.buddy(d)
            if self.is_dead(adopter):
                self._abort = (f"node {d} and its backup host {adopter} "
                               "both crashed; the runs are gone")
                return
            self._adopters[d] = adopter
            self.decide("reassign", d,
                        f"partitions adopted by node {adopter}")
        self.epoch += 1
        self.alive = [r for r in self.alive if r not in dead]
        # the old epoch's striping is void: winners, gates, and durable
        # pieces all referred to it
        self._durable_pieces = {}
        self._winner = {}
        self._gate = set()
        self._streak = {}

    def adopters(self) -> dict[int, int]:
        """dead rank -> surviving rank merging its partitions."""
        return dict(self._adopters)

    def check_abort(self) -> None:
        if self._abort is not None:
            raise SortError(f"recovery aborted: {self._abort}")

    def output_owners(self) -> Optional[list[int]]:
        """Stripe layout of the final output: ``None`` for the full
        cluster (no epoch change), else the survivors in stripe order."""
        return None if self.epoch == 0 else list(self.alive)

    # -- lifecycle -----------------------------------------------------------

    def node_done(self, rank: int) -> None:
        """Rank ``rank``'s SPMD main returned (or died cleanly)."""
        self._done.add(rank)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RecoveryManager epoch={self.epoch} alive={self.alive} "
                f"decisions={len(self.decisions.entries)}>")
