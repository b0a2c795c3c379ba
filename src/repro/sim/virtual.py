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
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from math import inf
from typing import Any, Callable, Optional

from repro.errors import DeadlockError, KernelShutdown, KernelStateError
from repro.sim.kernel import Kernel, Process, ProcessState, _check_tick, _Wake
from repro.sim.trace import FINISH, PARK, RESUME, SPAWN, Tracer
from repro.sim.waitfor import runtime_wait_cycle

__all__ = ["VirtualTimeKernel"]


class VirtualTimeKernel(Kernel):
    """Cooperative scheduler over a simulated clock.

    Typical use::

        kernel = VirtualTimeKernel()
        kernel.spawn(node_main, 0)
        kernel.spawn(node_main, 1)
        kernel.run()           # raises on failure or deadlock
        elapsed = kernel.now() # simulated seconds
    """

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
        #: waking nobody (see :mod:`repro.sim.kernel`, "Polls"); so
        #: ``switches - handoffs - polled`` parkers kept the token.  A
        #: plain attribute like ``handoffs``, never a metric.
        self.polled = 0
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
        while not ready():
            self.current_process()._poll = (ready, tick)
            self.sleep(tick)

    def block_current(self, *, locked: bool, reason: str = "") -> Any:
        if not locked:
            raise KernelStateError("block_current requires the kernel mutex")
        me = self.current_process()
        me.state = ProcessState.BLOCKED
        me._waiting_on = reason
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
        proc.wait_info = None
        self._ready.append(proc)

    # -- scheduling core -------------------------------------------------------

    def _pick_locked(self) -> Optional[Process]:
        if self._ready:
            return self._ready.popleft()
        heap = self._heap
        while heap:
            t, _, proc = heapq.heappop(heap)
            # The clock never moves backwards: events are scheduled at
            # now+duration with duration >= 0.
            self._now = t
            poll = proc._poll
            if poll is None:
                return proc
            ready, tick = poll
            try:
                due = ready()
            except Exception:  # noqa: BLE001 - the poller re-raises it
                due = True
            if due:
                proc._poll = None
                return proc
            # a false tick: record and count what the poller's own
            # resume and sleep would have, re-queue it, pick again
            self.switches += 1
            self.polled += 1
            proc._waiting_on = until = t + tick
            if self.tracer is not None:
                self.tracer.record(t, proc.name, RESUME)
                self.tracer.record(t, proc.name, PARK, proc.waiting_on)
            heapq.heappush(heap, (until, next(self._seq), proc))
        return None

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
            (self._main_event if nxt is None else nxt._resume_event).set()
            me._resume_event.wait()
        if self._aborting:
            raise KernelShutdown()
        me.state = ProcessState.RUNNING
        me._waiting_on = None
        me.wait_info = None
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
        if self.tracer is not None:
            self.tracer.record(self._now, proc.name, SPAWN)

    def _admit(self, proc: Process) -> None:
        if self.tracer is not None:
            self.tracer.record(self._now, proc.name, RESUME)

    def _retire(self, proc: Process) -> None:
        self.mutex.acquire()
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
            nxt = self._pick_locked()
            if nxt is None:
                blocked = [p for p in self._processes if p.alive]
                message = ("deadlock: all live processes are blocked and no "
                           "timed event is pending\n"
                           + self._describe_blocked(blocked))
                cycle = runtime_wait_cycle(blocked)
                if cycle is not None:
                    message += f"\n  wait-for cycle: {cycle}"
                self._abort_locked()  # releases mutex
                raise DeadlockError(message)
            self.mutex.release()
            nxt._resume_event.set()
            self._main_event.wait()

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
