"""Real-time kernel: free-running threads, wall-clock time.

This kernel implements the same contract as
:class:`~repro.sim.virtual.VirtualTimeKernel` but lets processes run
concurrently under the OS scheduler: binding a process to a carrier thread
(:mod:`repro.sim.kernel`) wakes the carrier at once.  It exists for two
reasons:

* correctness runs — the same FG programs execute on it unmodified, which
  checks that nothing in the library depends on cooperative scheduling; and
* realistic demonstrations — stages may perform *real* file I/O (via the
  file-backed storage backend), where Python releases the GIL and genuine
  overlap occurs, mirroring the paper's original deployment.

``time_scale`` maps modeled latencies to real sleeps: ``1.0`` sleeps the
modeled duration, ``0.0`` turns modeled latencies into pure yields (useful
in fast correctness tests).
"""

from __future__ import annotations

import threading
import time
from math import inf
from typing import Any, Optional

from repro.errors import KernelShutdown, KernelStateError
from repro.sim.kernel import Kernel, Process, ProcessState

__all__ = ["RealTimeKernel"]


class RealTimeKernel(Kernel):
    """Kernel whose clock is the wall clock and whose threads run freely."""

    def __init__(self, time_scale: float = 1.0) -> None:
        super().__init__()
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.time_scale = time_scale
        self._t0 = time.monotonic()
        self._done = threading.Condition(self.mutex)

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return time.monotonic() - self._t0

    # -- blocking primitives ----------------------------------------------------

    def sleep(self, duration: float) -> None:
        """Sleep ``duration * time_scale`` real seconds (yield if zero)."""
        if not 0 <= duration < inf:  # also false for NaN
            raise ValueError(
                f"sleep duration must be finite and >= 0: {duration}")
        if self._aborting:
            raise KernelShutdown()
        scaled = duration * self.time_scale
        if scaled > 0:
            time.sleep(scaled)
        else:
            # Encourage interleaving so behaviour resembles the modeled
            # asynchrony even when latencies are scaled away.
            time.sleep(0)

    def block_current(self, *, locked: bool, on: Any,
                      how: Any = None) -> Any:
        if not locked:
            raise KernelStateError("block_current requires the kernel mutex")
        me = self.current_process()
        if self._aborting:
            # the abort may have fired before we parked; clearing our
            # wake below would wipe its wakeup, so bail out now
            self.mutex.release()
            raise KernelShutdown()
        me.state = ProcessState.BLOCKED
        me._waiting_on = (on, how)
        me._resume_event.clear()
        self.mutex.release()
        me._resume_event.wait()
        if self._aborting:
            raise KernelShutdown()
        me.state = ProcessState.RUNNING
        me._waiting_on = None
        value, me.wake_value = me.wake_value, None
        return value

    def make_ready(self, proc: Process, wake_value: Any = None) -> None:
        if not proc.alive:
            return  # see VirtualTimeKernel.make_ready: abort-unwind race
        proc.wake_value = wake_value
        proc.state = ProcessState.READY
        proc._waiting_on = None
        proc._resume_event.set()

    # -- process lifecycle ---------------------------------------------------------

    def _prepare_new_process_locked(self, proc: Process) -> None:
        # Real-time processes start running immediately.
        proc._resume_event.set()

    def _retire(self, proc: Process) -> None:
        with self.mutex:
            self._live -= 1
            self._record_failure_locked(proc)
            self._release_carrier_locked(proc)
            self._wake_joiners_locked(proc)
            if proc.exception is not None and not self._aborting:
                self._begin_abort_locked()
            self._done.notify_all()

    def _begin_abort_locked(self) -> None:
        self._aborting = True
        for p in self._processes:
            if p.alive:
                p._resume_event.set()

    # -- run loop ------------------------------------------------------------------

    def run(self, timeout: Optional[float] = None) -> None:
        """Run to completion; optionally fail after ``timeout`` real seconds.

        A timeout aborts all processes and raises
        :class:`~repro.errors.KernelStateError` — the real-time kernel has
        no general deadlock detector, so the watchdog is the safety net for
        mis-assembled programs.
        """
        if self._started:
            raise KernelStateError("kernel already ran")
        if self.in_process():
            raise KernelStateError("run() may not be called from a process")
        self._started = True
        try:
            with self.mutex:
                for proc in self._processes:
                    if proc.state is ProcessState.NEW:
                        self._start_process_locked(proc)
                finished = self._done.wait_for(lambda: self._live == 0,
                                               timeout=timeout)
                if not finished:
                    # described before the abort: an unwinding process
                    # wakes its joiners, which would clear their parks
                    report = self._describe_blocked(
                        p for p in self._processes if p.alive)
                    self._begin_abort_locked()
                    self._done.wait_for(lambda: self._live == 0, timeout=5.0)
                    raise KernelStateError(
                        "real-time kernel watchdog expired; live processes:\n"
                        + report)
            if self._failure is not None:
                raise self._failure
        finally:
            self._finish()
