"""The simulated disk device: one arm, seek + bandwidth charging.

A :class:`Disk` wraps a :class:`~repro.cluster.storage.Storage` with the
cost model of :class:`~repro.cluster.hardware.HardwareModel`: every read or
write holds the (capacity-1) disk-arm resource for ``seek +
nbytes/bandwidth`` kernel seconds (:meth:`Resource.hold
<repro.sim.resources.Resource.hold>`), and then performs the real data
movement on the backing store.  Concurrent requests from different pipeline
stages therefore serialize on the arm — exactly the contention that makes
"the most heavily used disk in a pass" matter for dsort (paper, Section I).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.cluster.hardware import HardwareModel
from repro.cluster.storage import Storage
from repro.errors import DiskError, FaultInjected
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy
    from repro.obs.metrics import Counter, Histogram

__all__ = ["Disk"]

#: attempt-count buckets for the per-op retry histogram
_ATTEMPT_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


class Disk:
    """A single disk: storage + arm contention + I/O accounting.

    With a :class:`~repro.faults.injector.FaultInjector` attached, every
    timed operation consults the injector (transient faults are retried
    under ``retry``, charging the full modeled time per failed attempt;
    permanent faults propagate) and straggler slowdowns stretch service
    time.  Without one, behaviour is byte-identical to the fault-free
    model.
    """

    def __init__(self, kernel: Kernel, storage: Storage,
                 hardware: HardwareModel, name: str = "disk",
                 rank: int = 0,
                 injector: Optional["FaultInjector"] = None,
                 retry: Optional["RetryPolicy"] = None):
        self.kernel = kernel
        self.storage = storage
        self.hardware = hardware
        self.name = name
        self.rank = rank
        self.injector = injector
        if injector is not None and retry is None:
            from repro.faults.retry import RetryPolicy
            retry = RetryPolicy()
        self.retry = retry
        self.arm = Resource(kernel, capacity=1, name=f"{name}.arm")
        # accounting
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.writes = 0
        #: the ``retry.disk.attempts`` histogram, looked up at the first
        #: faultable operation, and the ``retry.disk.retries`` counter,
        #: at the first retry
        self._m_attempts: Optional["Histogram"] = None
        self._m_retries: Optional["Counter"] = None

    # -- timed operations (must run inside a kernel process) ----------------

    def _timed_op(self, op: str, nbytes: int,
                  fn: Callable[[], Any]) -> Any:
        """One arm-serialized storage operation, with optional faults.

        Each attempt holds the arm for the (possibly straggler-stretched)
        modeled duration before the injector rules on it, so failed
        attempts cost real disk time; backoff sleeps happen *outside* the
        arm hold so other stages can use the disk meanwhile.  The ruling
        and the data movement follow the hold at the same instant.
        """
        injector = self.injector
        if injector is None:
            self.arm.hold(self.hardware.disk_time(nbytes))
            return fn()
        retry = self.retry
        attempts = 0

        def attempt() -> Any:
            nonlocal attempts
            attempts += 1
            timeout = retry.op_timeout
            duration = 0.0

            def service_time() -> float:
                # the straggler factor in force when the arm is granted
                nonlocal duration
                duration = (self.hardware.disk_time(nbytes)
                            * injector.disk_factor(self.rank))
                return duration if timeout is None else min(duration,
                                                            timeout)

            self.arm.hold(service_time)
            if timeout is not None and duration > timeout:
                raise FaultInjected(
                    f"disk {op} exceeded {timeout:g}s op timeout",
                    site=f"disk.{self.rank}", rank=self.rank)
            injector.disk_op(self.rank, op, nbytes)
            return fn()

        registry = self.kernel.metrics

        def on_retry(_attempt: int, _exc: BaseException) -> None:
            if registry is not None:
                if self._m_retries is None:
                    self._m_retries = registry.counter("retry.disk.retries")
                self._m_retries.inc()

        result = retry.call(f"disk.{self.rank}.{op}", attempt,
                            sleep=self.kernel.sleep,
                            rng=injector.rng(f"retry.disk.{self.rank}"),
                            on_retry=on_retry)
        if registry is not None:
            hist = self._m_attempts
            if hist is None:
                hist = self._m_attempts = registry.histogram(
                    "retry.disk.attempts", bounds=_ATTEMPT_BOUNDS)
            hist.observe(attempts)
        return result

    def read(self, name: str, offset: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` at ``offset`` of file ``name``; returns uint8 array."""
        if nbytes < 0:
            raise DiskError(f"negative read length: {nbytes}")
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_into(name, offset, out)
        return out

    def read_into(self, name: str, offset: int, out: np.ndarray) -> None:
        """Read ``out.nbytes`` at ``offset`` of file ``name`` into ``out``
        (:meth:`Storage.read_into <repro.cluster.storage.Storage.read_into>`):
        the same timed operation as :meth:`read`, which is this with a
        fresh array."""
        nbytes = out.nbytes
        self._timed_op(
            "read", nbytes,
            lambda: self.storage.read_into(name, offset, out))
        self.bytes_read += nbytes
        self.reads += 1

    def write(self, name: str, offset: int, data: np.ndarray) -> None:
        """Write ``data`` (any dtype, raw bytes) at ``offset`` of ``name``."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._timed_op(
            "write", len(raw),
            lambda: self.storage.write(name, offset, raw))
        self.bytes_written += len(raw)
        self.writes += 1

    # -- untimed metadata operations ------------------------------------------

    def size(self, name: str) -> int:
        return self.storage.size(name)

    def exists(self, name: str) -> bool:
        return self.storage.exists(name)

    def delete(self, name: str) -> None:
        self.storage.delete(name)

    def names(self) -> list[str]:
        return self.storage.names()

    # -- stats -----------------------------------------------------------------

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    def busy_time(self) -> float:
        """Seconds the disk arm has been busy so far."""
        return self.arm.busy_time()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Disk {self.name}: {self.reads} reads "
                f"({self.bytes_read} B), {self.writes} writes "
                f"({self.bytes_written} B)>")
