"""Bounded FIFO channels, generic over both kernels.

A :class:`Channel` is the synchronization object underlying every FG buffer
queue (the queues drawn between stages in the paper's Figure 2) and the
recycling path from sink back to source.  Semantics:

* ``put`` blocks while the channel holds ``capacity`` items (``capacity=0``
  gives rendezvous semantics; ``capacity=None`` is unbounded);
* ``get`` blocks while the channel is empty;
* both ends are FIFO-fair, which the virtual-time kernel relies on for
  determinism;
* ``close`` wakes all blocked parties with :class:`ChannelClosed`; a closed
  channel drains remaining items to getters before raising.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Optional, TypeVar

from repro.errors import ChannelClosed
from repro.sim.kernel import Kernel, Process

__all__ = ["Channel", "Flag"]

T = TypeVar("T")

_ITEM = "item"
_CLOSED = "closed"
#: what ``_take`` returns when a ``try_get`` found nothing
_NOTHING = object()


class Channel(Generic[T]):
    """A FIFO queue that blocks kernel processes, not OS threads directly."""

    def __init__(self, kernel: Kernel, capacity: Optional[int] = None,
                 name: str = "channel"):
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be None or >= 0")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        #: label of whoever owns this channel (an FG program sets the
        #: pipeline name); surfaced in deadlock reports
        self.owner: Optional[str] = None
        self._buf: deque[T] = deque()
        # parked getters and putters, FIFO: lists, as there are a few at
        # most and a list costs a tenth of an empty deque's bytes
        self._getq: list[Process] = []
        self._putq: list[tuple[Process, T]] = []
        self._closed = False
        #: total items ever delivered through this channel (stats)
        self.delivered = 0
        #: kernel-process names an FG program registers as this channel's
        #: counterparties at assembly time; the deadlock wait-for-graph
        #: analysis (:mod:`repro.sim.waitfor`) uses them to name who a
        #: blocked process is actually waiting on
        self.producers: set[str] = set()
        self.consumers: set[str] = set()
        # self-instrumentation: when the kernel carries a metrics registry
        # (kernel.enable_metrics()), record queue occupancy — with a
        # time-weighted level histogram and a sample series for the
        # Chrome-trace counter track — and items delivered.
        registry = kernel.metrics
        if registry is not None:
            self._m_occupancy = registry.gauge(
                f"channel.{name}.occupancy", record_samples=True,
                level_bounds=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
            self._m_delivered = registry.counter(
                f"channel.{name}.delivered")
        else:
            self._m_occupancy = None
            self._m_delivered = None

    def _park_reason(self, how: str) -> str:
        """What a process parked in ``how`` (``"get"``/``"put"``) is
        parked on."""
        arrow = "<-" if how == "get" else "->"
        return f"{how} {arrow} {self.name}"

    def _wait_info(self) -> str:
        """Deadlock-report detail: live occupancy, capacity, and owner."""
        cap = "inf" if self.capacity is None else self.capacity
        owner = f", pipeline {self.owner}" if self.owner else ""
        return f"(occupancy {len(self._buf)}/{cap}{owner})"

    # -- queries (racy by nature; fine under the cooperative kernel) -------

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- put / get ----------------------------------------------------------------

    def put(self, item: T) -> None:
        """Append ``item``, blocking while the channel is full."""
        self._offer(item, True)

    def try_put(self, item: T) -> bool:
        """Append ``item`` if it would not block; return success."""
        return self._offer(item, False)

    def get(self) -> T:
        """Remove and return the oldest item, blocking while empty."""
        return self._take(True)

    def try_get(self) -> tuple[bool, Optional[T]]:
        """Return ``(True, item)`` if an item was available, else ``(False, None)``."""
        item = self._take(False)
        return (False, None) if item is _NOTHING else (True, item)

    def _offer(self, item: T, block: bool) -> bool:
        """``put`` (``block``) / ``try_put``: True once ``item`` is in."""
        kernel = self.kernel
        kernel.mutex.acquire()
        if self._closed:
            kernel.mutex.release()
            raise ChannelClosed(f"put on closed channel {self.name!r}")
        room = self.capacity is None or len(self._buf) < self.capacity
        if not (block or room or self._getq):
            kernel.mutex.release()
            return False
        race = kernel.race
        if race is not None:
            # happens-before edge: deliveries follow put order, so the
            # detector keeps a FIFO of sender clock snapshots per channel.
            # A blocking put records its send now, before it parks (the
            # snapshot must be the putter's); a try_put that would block
            # has returned above and records none.
            race.on_send(self)
        if self._getq:
            getter = self._getq.pop(0)
            self.delivered += 1
            if self._m_delivered is not None:
                self._m_delivered.inc()
            if race is not None:
                race.on_handoff(self, getter.pid)
            kernel.make_ready(getter, (_ITEM, item))
            kernel.mutex.release()
            return True
        if room:
            self._buf.append(item)
            if self._m_occupancy is not None:
                self._m_occupancy.set(len(self._buf))
            kernel.mutex.release()
            return True
        self._putq.append((kernel.current_process(), item))
        outcome = kernel.block_current(locked=True, on=self, how="put")
        if outcome == _CLOSED:
            raise ChannelClosed(f"channel {self.name!r} closed while putting")
        return True

    def _take(self, block: bool) -> T:
        """``get`` (``block``) / ``try_get``: the item, or ``_NOTHING``."""
        kernel = self.kernel
        kernel.mutex.acquire()
        race = kernel.race
        if self._buf or self._putq:
            self.delivered += 1
            if self._m_delivered is not None:
                self._m_delivered.inc()
            if race is not None:
                race.on_receive(self)
            if self._buf:
                item = self._buf.popleft()
                if self._putq:  # a parked putter's item takes the free slot
                    putter, pending = self._putq.pop(0)
                    self._buf.append(pending)
                    kernel.make_ready(putter, _ITEM)
                if self._m_occupancy is not None:
                    self._m_occupancy.set(len(self._buf))
            else:  # capacity == 0 rendezvous
                putter, item = self._putq.pop(0)
                kernel.make_ready(putter, _ITEM)
            kernel.mutex.release()
            return item
        if not block:
            kernel.mutex.release()
            return _NOTHING
        if self._closed:
            kernel.mutex.release()
            raise ChannelClosed(f"get on closed, empty channel {self.name!r}")
        self._getq.append(kernel.current_process())
        kind, payload = kernel.block_current(locked=True, on=self, how="get")
        if kind == _CLOSED:
            raise ChannelClosed(f"channel {self.name!r} closed while getting")
        if race is not None:
            # the putter handed us its clock snapshot via on_handoff
            race.on_resume()
        return payload

    # -- shutdown ------------------------------------------------------------------

    def close(self) -> None:
        """Close the channel, waking every blocked getter and putter.

        Items already buffered remain retrievable via ``get``; once the
        buffer drains, further ``get`` calls raise :class:`ChannelClosed`.
        """
        kernel = self.kernel
        kernel.mutex.acquire()
        if self._closed:
            kernel.mutex.release()
            return
        self._closed = True
        getters, self._getq = self._getq, []
        putters, self._putq = self._putq, []
        for getter in getters:
            kernel.make_ready(getter, (_CLOSED, None))
        for putter, _pending in putters:
            kernel.make_ready(putter, _CLOSED)
        kernel.mutex.release()


class Flag:
    """A one-shot flag: one process sets it, others poll it.

    Neither side blocks, parks or records an event, so a flag moves no
    timeline.  What it adds over a shared ``bool`` is the happens-before
    edge: under FGRace, :meth:`set` stamps the setter's clock on the flag
    and an :meth:`is_set` that finds it set joins that clock, as a
    cluster message's send and receive do.
    """

    __slots__ = ("kernel", "_set", "_race_clock")

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._set = False

    def set(self) -> None:
        race = self.kernel.race
        if race is not None:
            race.stamp_message(self)
        self._set = True

    def is_set(self) -> bool:
        if self._set and self.kernel.race is not None:
            self.kernel.race.join_message(self, keep=True)
        return self._set
