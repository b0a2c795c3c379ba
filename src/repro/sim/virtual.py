"""Deterministic virtual-time kernel.

The central idea (see DESIGN.md): FG stages must be writable as plain
blocking Python functions — that is the programming model the paper sells —
yet a pure-Python reproduction cannot measure latency overlap with real
threads because of the GIL.  This kernel squares that circle by running each
process on a real OS thread — a *carrier* borrowed from the kernel's pool for
the life of the process (:mod:`repro.sim.kernel`), so a blocking call simply
blocks — while enforcing **cooperative, token-passing scheduling**: exactly
one thread executes at any moment, every blocking primitive hands the "run
token" to the scheduler, and the scheduler advances a simulated clock to the
earliest pending timed event.  Reported times are therefore exact
consequences of the configured cost models; the GIL only affects how long
the simulation takes to execute, never what it reports.  Which carrier runs
which process is invisible in simulated time: a thousand short processes
cost as many OS threads as are ever alive at once.

Determinism: the ready queue is FIFO, timed events are ordered by
``(time, sequence-number)``, wakers never signal threads directly (they move
processes to the ready queue under the kernel mutex), and the single run
token serializes everything.  Two runs of the same program with the same
seeds produce identical event timelines.

Stuck runs: when no process is ready and no timed event is pending,
:meth:`VirtualTimeKernel.run` raises :class:`~repro.errors.DeadlockError`.
A run can also be stuck while simulated time advances: pollers re-check a
condition nothing will make true, sleepers tick, and every other process
waits forever.  The kernel notes the switch count at every wake-up that
is not timed (a :meth:`~VirtualTimeKernel.make_ready` from a channel,
mailbox, resource grant or join, or a spawn); when a poll tick finds
more than :data:`LIVELOCK_SWITCHES` switches since then, ``run()`` raises
``DeadlockError("livelock: …")`` listing every live process, pollers
first.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from math import inf
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import DeadlockError, KernelShutdown, KernelStateError
from repro.sim.kernel import (
    HoldTime,
    Kernel,
    Process,
    ProcessState,
    _check_tick,
    _hold_time,
    _Wake,
)
from repro.sim.trace import FINISH, PARK, RESUME, SPAWN, Tracer
from repro.sim.waitfor import runtime_wait_cycle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.resources import Resource

__all__ = ["VirtualTimeKernel"]

#: switches without a wake-up that was not timed (a channel, mailbox,
#: resource grant, join or spawn) after which a poll's tick gives up:
#: nothing but pollers and sleepers has run for that long
LIVELOCK_SWITCHES = 100_000


class _Poll:
    """A parked poller's step (:mod:`repro.sim.kernel`, "Polls"): wake it
    at a true tick, run a false one in its place."""

    __slots__ = ("kernel", "proc", "ready", "tick")

    def __init__(self, kernel: "VirtualTimeKernel", proc: Process,
                 ready: Callable[[], bool], tick: float) -> None:
        self.kernel = kernel
        self.proc = proc
        self.ready = ready
        self.tick = tick

    def __call__(self) -> bool:
        try:
            if self.ready():
                return True
        except Exception:  # noqa: BLE001 - the poller re-raises it
            return True
        kernel = self.kernel
        kernel.polled += 1
        kernel._repark_locked(self.proc, kernel._now + self.tick)
        if kernel.switches - kernel._woken_at > LIVELOCK_SWITCHES:
            kernel._livelock = True
        return False


class _Hold:
    """A parked holder's step (:mod:`repro.sim.kernel`, "Holds"): off the
    ready queue it has just been granted its units, and its sleep is
    started in its place; off the timeline its sleep is over, and its
    units are released before it is woken."""

    __slots__ = ("kernel", "proc", "resource", "seconds", "units", "until")

    def __init__(self, kernel: "VirtualTimeKernel", proc: Process,
                 resource: "Resource", seconds: HoldTime,
                 units: int) -> None:
        self.kernel = kernel
        self.proc = proc
        self.resource = resource
        self.seconds = seconds
        self.units = units
        #: the end of the sleep once it started, None while queued
        self.until: Optional[float] = None

    def __call__(self) -> bool:
        if self.until is not None:
            self.resource._release_locked(self.units)
            return True
        kernel = self.kernel
        try:
            self.until = kernel._now + _hold_time(self.seconds)
        except Exception:  # noqa: BLE001 - the holder re-raises it
            return True
        kernel.granted += 1
        kernel._repark_locked(self.proc, self.until)
        return False


class VirtualTimeKernel(Kernel):
    """Cooperative scheduler over a simulated clock.

    Typical use::

        kernel = VirtualTimeKernel()
        kernel.spawn(node_main, 0)
        kernel.spawn(node_main, 1)
        kernel.run()           # raises on failure or deadlock
        elapsed = kernel.now() # simulated seconds
    """

    _BATCH_CARRIERS = True

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        super().__init__()
        self._now = 0.0
        self._ready: deque[Process] = deque()
        self._heap: list[tuple[float, int, Process]] = []
        self._seq = itertools.count()
        self._main_event = _Wake()
        self._all_dead = _Wake()
        #: number of context switches performed (exposed for tests/stats)
        self.switches = 0
        #: switches that woke a different thread; the other ``switches -
        #: handoffs`` kept the run token where it was (see
        #: :mod:`repro.sim.kernel`, "Self hand-off").  Exact and
        #: repeatable, a plain attribute like ``switches``, never a metric.
        self.handoffs = 0
        #: switches that were false poll ticks the scheduler ran itself,
        #: waking nobody (see :mod:`repro.sim.kernel`, "Polls").  A plain
        #: attribute like ``handoffs``, never a metric.
        self.polled = 0
        #: switches that were a granted holder's sleep, started by the
        #: scheduler without waking it (:mod:`repro.sim.kernel`,
        #: "Holds"); so ``switches - handoffs - polled - granted``
        #: parkers kept the token.  A plain attribute, never a metric.
        self.granted = 0
        # the livelock guard: ``switches`` at the last wake-up that was
        # not timed, and whether a poll tick found it too far back
        self._woken_at = 0
        self._livelock = False
        # perf_counter_ns() at the current owner's last change of hands
        self._host_mark = 0
        #: optional execution tracer (see :mod:`repro.sim.trace`)
        self.tracer = tracer

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self._now

    # -- blocking primitives ---------------------------------------------------

    def sleep(self, duration: float) -> None:
        """Advance this process ``duration`` simulated seconds.

        Other ready processes run during the interval — this is how latency
        overlap happens.  ``duration`` may be zero (yields the token while
        keeping the process at the front of the timeline).
        """
        if not 0 <= duration < inf:  # also false for NaN
            raise ValueError(
                f"sleep duration must be finite and >= 0: {duration}")
        me = self.current_process()
        self.mutex.acquire()
        me.state = ProcessState.BLOCKED
        # the deadline, not a string: Process.waiting_on formats it for
        # whoever asks (a tracer, a deadlock report), and most parks are
        # sleeps nobody asks about
        me._waiting_on = until = self._now + duration
        heapq.heappush(self._heap, (until, next(self._seq), me))
        self._park_and_handoff_locked(me)

    def poll(self, ready: Callable[[], bool], tick: float) -> None:
        """``while not ready(): sleep(tick)``, with the false ticks run by
        the scheduler (:mod:`repro.sim.kernel`, "Polls").

        The process parks once, marked as a poller; the scheduler hands
        it the token only at a tick where ``ready()`` holds, and the loop
        re-checks it then — the same answer at the same instant, or, for
        a ``ready`` that raised under the scheduler, the exception raised
        here in the poller's own process.
        """
        _check_tick(tick)
        if ready():
            return
        me = self.current_process()
        step = _Poll(self, me, ready, tick)
        while True:
            me._step = step
            self.sleep(tick)
            if ready():
                return

    def hold(self, resource: "Resource", seconds: HoldTime,
             units: int = 1) -> None:
        """``with resource.request(units): sleep(seconds)``, with the
        grant and the release run by the scheduler (:mod:`repro.sim.kernel`,
        "Holds"): one park, and one wake at the end of the sleep."""
        if not callable(seconds):
            _hold_time(seconds)
        resource._check_units(units)
        me = self.current_process()
        hold = _Hold(self, me, resource, seconds, units)
        self.mutex.acquire()
        if resource._take_locked(units):
            try:
                hold.until = until = self._now + _hold_time(seconds)
            except BaseException:
                resource._release_locked(units)
                self.mutex.release()
                raise
            me._waiting_on = until
            heapq.heappush(self._heap, (until, next(self._seq), me))
        else:
            resource._waiters.append((me, units))
            me._waiting_on = (resource, units)
        me.state = ProcessState.BLOCKED
        me._step = hold
        try:
            self._park_and_handoff_locked(me)
        except KernelShutdown:
            if hold.until is not None:  # the bracket's release
                resource.release(units)
            raise
        if hold.until is None:
            # granted, but ``seconds`` failed under the scheduler: ask it
            # here, in the holder's own process, as the bracket does
            try:
                self.sleep(_hold_time(seconds))
            finally:
                resource.release(units)

    def block_current(self, *, locked: bool, on: Any,
                      how: Any = None) -> Any:
        if not locked:
            raise KernelStateError("block_current requires the kernel mutex")
        me = self.current_process()
        me.state = ProcessState.BLOCKED
        me._waiting_on = (on, how)
        self._park_and_handoff_locked(me)
        value, me.wake_value = me.wake_value, None
        return value

    def make_ready(self, proc: Process, wake_value: Any = None) -> None:
        if not proc.alive:
            # only reachable during abort unwinding, when a dying process's
            # cleanup (e.g. a resource release in a finally block) wakes a
            # waiter that already unwound; never resurrect it
            return
        proc.wake_value = wake_value
        proc.state = ProcessState.READY
        proc._waiting_on = None
        self._ready.append(proc)
        self._woken_at = self.switches

    # -- scheduling core -------------------------------------------------------

    def _pick_locked(self) -> Optional[Process]:
        ready, heap = self._ready, self._heap
        while True:
            if ready:
                proc = ready.popleft()
            elif heap:
                # The clock never moves backwards: events are scheduled at
                # now+duration with duration >= 0.
                self._now, _, proc = heapq.heappop(heap)
            else:
                return None
            step = proc._step
            if step is None:
                return proc
            if step():
                proc._step = None
                return proc
            if self._livelock:
                return None

    def _repark_locked(self, proc: Process, until: float) -> None:
        """Run a parked process's resume and ``sleep`` for it: record and
        count what the process itself would have, and queue it on the
        timeline until ``until`` — without waking its thread."""
        self.switches += 1
        proc.state = ProcessState.BLOCKED
        proc._waiting_on = until
        if self.tracer is not None:
            self.tracer.record(self._now, proc.name, RESUME)
            self.tracer.record(self._now, proc.name, PARK, proc.waiting_on)
        heapq.heappush(self._heap, (until, next(self._seq), proc))

    def _park_and_handoff_locked(self, me: Process) -> None:
        """Hand the run token to the next process and wait to be resumed.

        Caller holds the mutex and has already registered ``me`` wherever it
        waits (event heap, a channel wait queue, ...).  Releases the mutex.

        When the next pick is ``me`` itself — a sleeper alone on the
        timeline — the token stays put and no wake is touched: the same
        switch as far as the clock, the counter and the trace can tell.
        ``me``'s own wake needs no clearing first: the last ``wait()``
        consumed it, and only the token holder or an abort ever sets it.
        """
        self.switches += 1
        if self.tracer is not None:
            self.tracer.record(self._now, me.name, PARK,
                               me.waiting_on or "")
        nxt = self._pick_locked()
        self.mutex.release()
        if nxt is not me:
            self.handoffs += 1  # still serialised: we hold the run token
            # me's hold of the token ends here (Process.host_ns), inline:
            # this is the hottest line of the kernel
            now_ns = perf_counter_ns()
            me.host_ns += now_ns - self._host_mark
            self._host_mark = now_ns
            (self._main_event if nxt is None else nxt._resume_event).set()
            me._resume_event.wait()
        if self._aborting:
            raise KernelShutdown()
        me.state = ProcessState.RUNNING
        me._waiting_on = None
        if self.tracer is not None:
            self.tracer.record(self._now, me.name, RESUME)

    def _handoff_locked_and_exit(self) -> None:
        """Hand the token onward without waiting (terminating process)."""
        nxt = self._pick_locked()
        self.mutex.release()
        (self._main_event if nxt is None else nxt._resume_event).set()

    # -- process lifecycle hooks ------------------------------------------------

    def _prepare_new_process_locked(self, proc: Process) -> None:
        # Newly spawned processes join the ready queue; their carrier stays
        # parked until the scheduler grants them the token.
        proc.state = ProcessState.READY
        self._ready.append(proc)
        self._woken_at = self.switches
        if self.tracer is not None:
            self.tracer.record(self._now, proc.name, SPAWN)

    def _admit(self, proc: Process) -> None:
        self._host_mark = perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record(self._now, proc.name, RESUME)

    def _retire(self, proc: Process) -> None:
        self.mutex.acquire()
        now_ns = perf_counter_ns()
        proc.host_ns += now_ns - self._host_mark
        self._host_mark = now_ns
        if self.tracer is not None:
            self.tracer.record(self._now, proc.name, FINISH)
        self._live -= 1
        live = self._live
        self._record_failure_locked(proc)
        self._release_carrier_locked(proc)
        if self._aborting:
            # Abort in progress: the main thread owns scheduling; just
            # report death and exit.
            self.mutex.release()
            if live == 0:
                self._all_dead.set()
            return
        self._wake_joiners_locked(proc)
        if proc.exception is not None:
            # Stop the world promptly: return the token to the main thread,
            # which will abort every parked process.
            self.mutex.release()
            self._main_event.set()
            return
        self._handoff_locked_and_exit()

    # -- run loop ------------------------------------------------------------------

    def run(self) -> None:
        if self._started:
            raise KernelStateError("kernel already ran")
        if self.in_process():
            raise KernelStateError("run() may not be called from a process")
        self._started = True
        try:
            self._schedule()
        finally:
            self._finish()

    def _schedule(self) -> None:
        """The main thread's side of the token: start, idle, abort."""
        with self.mutex:
            for proc in self._processes:
                if proc.state is ProcessState.NEW:
                    self._start_process_locked(proc)
        while True:
            self.mutex.acquire()
            if self._failure is not None:
                self._abort_locked()  # releases mutex
                raise self._failure
            if self._live == 0:
                self.mutex.release()
                if self.metrics is not None:
                    self.metrics.counter("kernel.context_switches").inc(
                        self.switches)
                    self.metrics.gauge("kernel.simulated_seconds",
                                       unit="s").set(self._now)
                return
            self._main_event.clear()
            nxt = None if self._livelock else self._pick_locked()
            if nxt is None:
                message = self._stuck_message_locked()
                self._abort_locked()  # releases mutex
                raise DeadlockError(message)
            self.mutex.release()
            nxt._resume_event.set()
            self._main_event.wait()

    def _stuck_message_locked(self) -> str:
        """Why the run cannot go on: a deadlock, or the livelock a poll
        tick found (pollers listed first)."""
        blocked = [p for p in self._processes if p.alive]
        if self._livelock:
            pollers = [p for p in blocked if isinstance(p._step, _Poll)]
            others = [p for p in blocked if not isinstance(p._step, _Poll)]
            return (f"livelock: {self.switches - self._woken_at} switches "
                    "since a process was last woken other than by the "
                    "clock; only polls and sleeps are running "
                    f"({len(pollers)} polling, listed first)\n"
                    + self._describe_blocked(pollers + others))
        message = ("deadlock: all live processes are blocked and no "
                   "timed event is pending\n"
                   + self._describe_blocked(blocked))
        cycle = runtime_wait_cycle(blocked)
        if cycle is not None:
            message += f"\n  wait-for cycle: {cycle}"
        return message

    def _abort_locked(self) -> None:
        """Unwind every parked process.  Caller holds the mutex; released."""
        self._aborting = True
        if self._live == 0:
            self._all_dead.set()
        # every live process is parked and bound: it cannot retire (and
        # give its event back) before the set() below reaches it
        parked = [p._resume_event for p in self._processes if p.alive]
        self.mutex.release()
        for event in parked:
            event.set()
        # Parked processes raise KernelShutdown, unwind, and _retire; the
        # last one sets _all_dead, by which time every carrier is idle
        # and _finish() reaps them.
        if parked:
            self._all_dead.wait()
