"""FGRace: a vector-clock happens-before race detector for FG programs.

The static layer (:mod:`repro.check.dataflow`) predicts which stages
*can* conflict on shared cells; FGRace observes which accesses *are*
actually ordered at runtime.  Every kernel process carries a vector
clock.  The synchronization edges of an FG program — channel ``put`` /
``get`` (buffer conveys, recycles, control queues), cluster message
send/receive, and process spawn/join (fork edges seed the child with
the spawner's clock; join edges fold the dead process's final clock
into the joiner, which is what orders a retried pass after the failed
attempt it replaces) — transfer clocks exactly like message-passing in
the classical happens-before model:

* a send ticks the sender's own component and snapshots its clock onto
  the item (channels keep a FIFO of snapshots, matching the proven
  delivery order; cluster messages carry the snapshot as an attribute
  because MPI-style matching is per ``(source, tag)``, not FIFO);
* a receive joins the snapshot into the receiver's clock (and drops a
  message's, which is received once).

When a stage accepts a buffer, the detector ticks the stage's process
clock and replays the stage's *statically inferred* effect set (the
cells :func:`repro.check.dataflow.program_effects` resolved for it)
against a per-cell access frontier: an access whose frontier entry from
another process is not ``<=`` the current clock is unordered — a race.

Two modes:

* default (``REPRO_RACE=1`` / ``FGProgram(race_detect=True)``): races
  are collected and :class:`~repro.errors.RaceError` is raised from
  ``FGProgram.wait()``, mirroring FGSan's teardown check;
* cross-check (``REPRO_RACE=strict`` / ``race_detect="strict"``): a
  dynamic race that the static analysis did *not* predict raises
  immediately — the mode CI uses to prove the static layer's coverage.

Overhead is a few dict operations per channel op, bounded by the
(small, static) number of resolved cells per stage — the dsort smoke
benchmark gates it at <= 2x virtual-time runtime.
"""

from __future__ import annotations

import dataclasses
import threading
from itertools import chain
from typing import Any, Optional

from repro.check.dataflow import Cell, ProgramEffects, cells_conflict
from repro.env import race_from_env
from repro.errors import KernelStateError, RaceError

__all__ = ["RaceDetector", "RaceFinding", "race_from_env"]

#: a vector clock frozen for the trip: ``(pid, component, pid, ...)``,
#: about half a dict's bytes, and there is one per item in flight
Snapshot = tuple[int, ...]


def _freeze(clock: dict[int, int]) -> Snapshot:
    return tuple(chain.from_iterable(clock.items()))


@dataclasses.dataclass(frozen=True)
class RaceFinding:
    """Two stage accesses to one cell unordered by any convey edge."""

    cell_label: str
    stage_a: str
    stage_b: str
    kind: str  # "write-write" | "write-read"
    predicted: bool  # did the static layer predict this pair/cell?

    def __str__(self) -> str:
        tag = "" if self.predicted else " [not statically predicted]"
        return (f"{self.kind} race on {self.cell_label!r}: "
                f"{self.stage_a!r} vs {self.stage_b!r} "
                f"(no happens-before edge){tag}")


@dataclasses.dataclass
class _Frontier:
    """Last access per cell: pid -> (clock component, stage name)."""

    writes: dict[int, tuple[int, str]] = dataclasses.field(
        default_factory=dict)
    reads: dict[int, tuple[int, str]] = dataclasses.field(
        default_factory=dict)


class RaceDetector:
    """Kernel attachment carrying the vector clocks and access frontiers.

    All hooks are thread-safe behind an internal lock (never the kernel
    mutex, so hooks are callable with or without it held) and tolerate
    non-kernel callers (the main thread pre-filling queues or draining
    poisoned pipelines participates with an anonymous, raceless clock).
    """

    def __init__(self, kernel: Any, *, strict: bool = False) -> None:
        self.kernel = kernel
        self.strict = strict
        self._lock = threading.Lock()
        #: pid -> vector clock (pid -> component)
        self._clocks: dict[int, dict[int, int]] = {}
        #: id(channel) -> FIFO of sender clock snapshots, aligned with
        #: the channel's (proven-FIFO) delivery order: a list, as a
        #: channel holds a few items at most and is empty most of the time
        self._chan: dict[int, list[Snapshot]] = {}
        #: pid -> snapshots handed to a blocked getter, joined on resume
        self._pending: dict[int, list[Snapshot]] = {}
        #: id(stage fn) -> (stage name, read cells, write cells) —
        #: resolved cells only, keyed by function identity because stage
        #: *names* collide across the per-node programs of a cluster run
        self._effects: dict[int, tuple[str, tuple[Cell, ...],
                                       tuple[Cell, ...]]] = {}
        #: obj_id -> cell -> access frontier
        self._frontiers: dict[int, dict[Cell, _Frontier]] = {}
        #: statically predicted (stage pair, obj_id, key) conflicts
        self._predicted: set[tuple[frozenset[str], int,
                                   Optional[str]]] = set()
        self.races: list[RaceFinding] = []
        self._seen: set[tuple[frozenset[str], str, str]] = set()

    # -- program registration --------------------------------------------

    def register_program(self, effects: ProgramEffects) -> None:
        """Load one program's static effect sets and predictions."""
        with self._lock:
            for entry in effects.stages:
                reads = tuple(c for c in entry.effects.reads if c.resolved)
                writes = tuple(c for c in entry.effects.writes
                               if c.resolved)
                if entry.fn_id and (reads or writes):
                    self._effects[entry.fn_id] = (entry.name, reads,
                                                  writes)
            self._predicted.update(effects.predicted_pairs())

    # -- clock plumbing ---------------------------------------------------

    def _pid(self) -> Optional[int]:
        try:
            return int(self.kernel.current_process().pid)
        except KernelStateError:
            return None

    def _clock(self, pid: int) -> dict[int, int]:
        clock = self._clocks.get(pid)
        if clock is None:
            clock = {pid: 0}
            self._clocks[pid] = clock
        return clock

    @staticmethod
    def _join(into: dict[int, int], snapshot: Snapshot) -> None:
        pairs = iter(snapshot)
        for pid, comp in zip(pairs, pairs):
            if into.get(pid, 0) < comp:
                into[pid] = comp

    def _snapshot(self) -> Snapshot:
        """Tick the caller's own component and return a clock copy."""
        pid = self._pid()
        if pid is None:
            return ()
        clock = self._clock(pid)
        clock[pid] = clock.get(pid, 0) + 1
        return _freeze(clock)

    # -- channel hooks (see repro.sim.channel) ----------------------------

    def on_send(self, channel: Any) -> None:
        """A ``put``/``try_put`` is delivering an item into ``channel``."""
        with self._lock:
            self._chan.setdefault(id(channel), []).append(self._snapshot())

    def on_receive(self, channel: Any) -> None:
        """The caller is consuming the oldest item of ``channel``."""
        with self._lock:
            queue = self._chan.get(id(channel))
            if not queue:
                return
            snapshot = queue.pop(0)
            pid = self._pid()
            if pid is not None:
                self._join(self._clock(pid), snapshot)

    def on_handoff(self, channel: Any, pid: int) -> None:
        """An item of ``channel`` was handed directly to blocked process
        ``pid`` (via ``make_ready``); it joins the clock on resume."""
        with self._lock:
            queue = self._chan.get(id(channel))
            if not queue:
                return
            self._pending.setdefault(pid, []).append(queue.pop(0))

    def on_resume(self) -> None:
        """The caller resumed from a blocked ``get``: join handed clocks."""
        with self._lock:
            pid = self._pid()
            if pid is None:
                return
            stash = self._pending.pop(pid, None)
            if stash:
                clock = self._clock(pid)
                for snapshot in stash:
                    self._join(clock, snapshot)

    # -- process lifecycle hooks (see repro.sim.kernel) -------------------

    def on_spawn(self, child_pid: int) -> None:
        """A process spawned ``child_pid``: the child starts after the
        spawner's current point (the fork edge).  No-op when the spawner
        is not a kernel process (root spawns before ``run()``)."""
        with self._lock:
            snapshot = self._snapshot()
            if snapshot:
                self._join(self._clock(child_pid), snapshot)

    def on_join(self, dead_pid: int) -> None:
        """The caller joined finished process ``dead_pid``: everything
        that process did happened before this point (the join edge).
        This is what orders a retried pass after the failed attempt it
        replaces — the harness joins the dead program's processes
        before spawning the replacements."""
        with self._lock:
            pid = self._pid()
            if pid is None:
                return
            dead = self._clocks.get(dead_pid)
            if dead:
                self._join(self._clock(pid), _freeze(dead))

    # -- cluster-message hooks (see repro.cluster.network) ----------------

    def stamp_message(self, msg: Any) -> None:
        """Attach the sender's ticked clock to an in-flight message."""
        with self._lock:
            msg._race_clock = self._snapshot()

    def join_message(self, msg: Any, *, keep: bool = False) -> None:
        """Join a received message's clock into the receiver's.

        A message is received once, so its clock is dropped here (its
        payload may live on in the receiver for a long time); ``keep``
        leaves it for further readers, as a set
        :class:`~repro.sim.channel.Flag` needs."""
        snapshot = getattr(msg, "_race_clock", None)
        if snapshot is None:
            return
        if not keep:
            msg._race_clock = None
        with self._lock:
            pid = self._pid()
            if pid is not None:
                self._join(self._clock(pid), snapshot)

    # -- the check itself -------------------------------------------------

    def on_stage_access(self, stage: Any) -> None:
        """A stage accepted a buffer: replay its static effect set.

        Ticks the accessing process's clock first, so two accesses by
        different processes are ordered only through a real convey edge
        between them, never by accident of equal components.
        """
        fn = getattr(stage, "fn", None)
        effects = self._effects.get(id(fn)) if fn is not None else None
        if effects is None:
            return
        with self._lock:
            pid = self._pid()
            if pid is None:
                return
            clock = self._clock(pid)
            clock[pid] = clock.get(pid, 0) + 1
            component = clock[pid]
            name, reads, writes = effects
            for cell in writes:
                self._check_locked(cell, pid, clock, name, is_write=True)
            for cell in reads:
                self._check_locked(cell, pid, clock, name, is_write=False)
            for cell in writes:
                self._cell_frontier(cell).writes[pid] = (component, name)
            for cell in reads:
                self._cell_frontier(cell).reads[pid] = (component, name)

    def _cell_frontier(self, cell: Cell) -> _Frontier:
        per_obj = self._frontiers.setdefault(cell.obj_id, {})
        frontier = per_obj.get(cell)
        if frontier is None:
            frontier = _Frontier()
            per_obj[cell] = frontier
        return frontier

    def _check_locked(self, cell: Cell, pid: int, clock: dict[int, int],
                      stage: str, *, is_write: bool) -> None:
        for other_cell, frontier in self._frontiers.get(
                cell.obj_id, {}).items():
            against = [("write-write" if is_write else "write-read",
                        frontier.writes)]
            if is_write:
                against.append(("write-read", frontier.reads))
            for kind, entries in against:
                if not cells_conflict(cell, other_cell,
                                      a_writes=is_write,
                                      b_writes=entries
                                      is frontier.writes):
                    continue
                for other_pid, (component, other_stage) in entries.items():
                    if other_pid == pid:
                        continue
                    if clock.get(other_pid, 0) >= component:
                        continue  # ordered: we have seen that access
                    self._report_locked(cell, stage, other_stage, kind)

    def _report_locked(self, cell: Cell, stage_a: str, stage_b: str,
                       kind: str) -> None:
        pair = frozenset((stage_a, stage_b))
        dedup = (pair, cell.label or str(cell.obj_id), kind)
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        predicted = (pair, cell.obj_id, cell.key) in self._predicted
        finding = RaceFinding(cell_label=str(cell), stage_a=stage_a,
                              stage_b=stage_b, kind=kind,
                              predicted=predicted)
        self.races.append(finding)
        if self.strict and not predicted:
            raise RaceError(
                "unpredicted-race",
                f"{finding} — the static effect analysis (FG110) did "
                f"not predict this conflict; its model is incomplete "
                f"for this program")

    # -- teardown ---------------------------------------------------------

    def check_teardown(self) -> None:
        """Raise :class:`RaceError` if any races were collected."""
        with self._lock:
            races, self.races = self.races, []
            self._seen.clear()
        if races:
            raise RaceError(
                "shared-state-race",
                f"{len(races)} unordered shared-state access(es):\n"
                + "\n".join(f"  {r}" for r in races))
