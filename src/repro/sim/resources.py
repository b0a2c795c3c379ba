"""Counted resources with FIFO fairness and utilization accounting.

A :class:`Resource` models a piece of hardware with bounded parallelism: a
disk arm (capacity 1), a NIC (capacity 1 per direction), a node's CPU cores
(capacity = core count).  Holding a unit while sleeping for a modeled
service time is how cost models charge for contention::

    disk_arm.hold(seek + nbytes / bandwidth)

which means ``with disk_arm.request(): kernel.sleep(...)``; the
virtual-time kernel runs its grant and release in the scheduler
(:mod:`repro.sim.kernel`, "Holds").

Fairness is strict FIFO with head-of-line blocking: a large request at the
head of the queue is never overtaken by a smaller one behind it.  This
matches how a single disk arm or link serializes transfers and keeps the
virtual-time kernel deterministic.

Utilization accounting integrates ``in_use`` over time, so after a run
``resource.utilization(total_time)`` reports the busy fraction — the raw
material for the per-pass analyses in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import deque

from repro.sim.kernel import HoldTime, Kernel, Process

__all__ = ["Resource"]


class Resource:
    """A counted resource acquired and released by kernel processes."""

    def __init__(self, kernel: Kernel, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._available = capacity
        self._waiters: deque[tuple[Process, int]] = deque()
        # time-weighted busy accounting
        self._busy_integral = 0.0
        self._last_change = kernel.now()
        #: total completed acquisitions (stats)
        self.acquisitions = 0

    # -- stats -----------------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    def busy_time(self) -> float:
        """Unit-seconds of busy time integrated so far (one unit busy for
        one second contributes 1.0)."""
        now = self.kernel.now()
        return self._busy_integral + self.in_use * (now - self._last_change)

    def utilization(self, elapsed: float) -> float:
        """Average busy fraction of the whole resource over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (self.capacity * elapsed)

    def _account_locked(self) -> None:
        now = self.kernel.now()
        self._busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def _park_reason(self, units: int) -> str:
        """What a process queued for ``units`` is parked on."""
        return f"acquire {units}x {self.name}"

    def _wait_info(self) -> str:
        """Deadlock-report detail: units in use and queue length."""
        return (f"(in use {self.in_use}/{self.capacity}, "
                f"{len(self._waiters)} queued)")

    # -- acquire / release ----------------------------------------------------------

    def _check_units(self, units: int) -> None:
        if units < 1 or units > self.capacity:
            raise ValueError(
                f"cannot acquire {units} units of {self.name!r} "
                f"(capacity {self.capacity})")

    def _take_locked(self, units: int) -> bool:
        """Take ``units`` now if FIFO order allows; mutex held."""
        if self._waiters or self._available < units:
            return False
        self._account_locked()
        self._available -= units
        self.acquisitions += 1
        return True

    def _release_locked(self, units: int) -> None:
        """Return ``units`` and grant queued waiters in order; mutex held."""
        if self._available + units > self.capacity:
            raise ValueError(
                f"release overflows {self.name!r}: "
                f"{self._available} + {units} > capacity {self.capacity}")
        self._account_locked()
        self._available += units
        while self._waiters and self._available >= self._waiters[0][1]:
            proc, need = self._waiters.popleft()
            self._available -= need
            self.acquisitions += 1
            self.kernel.make_ready(proc)

    def acquire(self, units: int = 1) -> None:
        """Take ``units`` of the resource, blocking until available (FIFO)."""
        self._check_units(units)
        kernel = self.kernel
        kernel.mutex.acquire()
        if self._take_locked(units):
            kernel.mutex.release()
            return
        self._waiters.append((kernel.current_process(), units))
        kernel.block_current(locked=True, on=self, how=units)
        # The releaser already performed the accounting and the decrement
        # on our behalf before waking us.

    def release(self, units: int = 1) -> None:
        """Return ``units`` to the resource and admit queued waiters in order."""
        if units < 1:
            raise ValueError("units must be >= 1")
        kernel = self.kernel
        kernel.mutex.acquire()
        try:
            self._release_locked(units)
        finally:
            kernel.mutex.release()

    def hold(self, seconds: HoldTime, units: int = 1) -> None:
        """Hold ``units`` for ``seconds`` of kernel time.

        Exactly ``with self.request(units): kernel.sleep(seconds)``.
        ``seconds`` may be a zero-argument function: it is called at the
        instant the units are granted, and must be read-only like a poll's
        predicate (:mod:`repro.sim.kernel`, "Holds").  An invalid
        ``seconds`` is refused before any unit is taken.
        """
        self.kernel.hold(self, seconds, units)

    def request(self, units: int = 1) -> "_Request":
        """``with resource.request(): ...`` — acquire/release bracket."""
        return _Request(self, units)


class _Request:
    """The bracket :meth:`Resource.request` returns: acquire on entry,
    release on exit, whatever the body raised."""

    __slots__ = ("_resource", "_units")

    def __init__(self, resource: Resource, units: int) -> None:
        self._resource = resource
        self._units = units

    def __enter__(self) -> None:
        self._resource.acquire(self._units)

    def __exit__(self, *exc_info: object) -> None:
        self._resource.release(self._units)
