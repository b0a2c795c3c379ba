"""Simulated interconnect: NIC contention, latency, and message transport.

Transfer model (store-and-forward, full-duplex NICs):

1. the *sender* holds its transmit-NIC resource for ``nbytes/bandwidth``
   seconds (so a node sending to many peers serializes on its own NIC);
2. the message becomes *available* at the destination ``net_latency``
   seconds after transmission completes;
3. the *receiver*, when it consumes the message, holds its receive-NIC
   resource for ``nbytes/bandwidth`` seconds (so a node that many peers
   target — dsort's unbalanced pass-1 communication — bottlenecks on its
   receive side, as on real hardware).

Sends are **eager**: the destination mailbox buffers arbitrarily many
messages, so a send never waits for a matching receive.  This mirrors
MPI eager-protocol behaviour for the mid-sized messages FG moves and makes
all-to-all exchanges trivially deadlock-free.

Message matching is FIFO per (source, tag) with optional wildcards, as in
MPI.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.hardware import HardwareModel
from repro.errors import CommError, FaultInjected
from repro.sim.kernel import Kernel, Process
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy
    from repro.obs.metrics import Counter, Histogram

__all__ = ["Message", "Mailbox", "Network"]

#: attempt-count buckets for the per-message retransmit histogram
_ATTEMPT_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


@dataclasses.dataclass
class Message:
    """One in-flight message."""

    src: int
    tag: int
    payload: Any
    nbytes: int
    available_at: float
    #: small out-of-band metadata dict (block ids, offsets, ...); charged
    #: as a fixed small header, not by pickled size
    meta: Optional[dict] = None
    #: True when the sender reserved bounded-mailbox space for this
    #: message (loopback messages never reserve)
    reserved: bool = False


def _matches(msg: Message, source: Optional[int], tag: Optional[int]) -> bool:
    return ((source is None or msg.src == source)
            and (tag is None or msg.tag == tag))


class Mailbox:
    """Per-node message buffer with MPI-style matching.

    Optionally *bounded*: with ``capacity_bytes`` set, senders must
    reserve space before depositing and block while the buffer is full —
    modeling real MPI memory limits / rendezvous behaviour instead of the
    default infinitely-eager buffering.  A message larger than the whole
    capacity is admitted only when the buffer is empty (it could never
    fit otherwise).
    """

    def __init__(self, kernel: Kernel, name: str,
                 capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes < 1:
            raise CommError("mailbox capacity must be None or >= 1")
        self.kernel = kernel
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._buffered_bytes = 0
        self._pending: deque[Message] = deque()
        self._waiters: deque[tuple[Process, Optional[int], Optional[int]]] = deque()
        self._send_waiters: deque[tuple[Process, int]] = deque()

    def reserve(self, nbytes: int) -> None:
        """Claim buffer space for an incoming deposit (sender side).

        No-op for unbounded mailboxes.  FIFO-fair: a big message at the
        head of the queue is not overtaken by small ones behind it.
        """
        if self.capacity_bytes is None:
            return
        kernel = self.kernel
        kernel.mutex.acquire()
        if (not self._send_waiters
                and self._fits_locked(nbytes)):
            self._buffered_bytes += nbytes
            kernel.mutex.release()
            return
        self._send_waiters.append((kernel.current_process(), nbytes))
        kernel.block_current(locked=True, on=self, how=nbytes)
        # the receiver that freed space performed our reservation

    def _park_reason(self, how: Any) -> str:
        """What a process parked here is parked on: a reserve of ``how``
        bytes, or a receive from ``how = (source, tag)``."""
        if isinstance(how, tuple):
            source, tag = how
            return f"recv(src={source}, tag={tag}) <- {self.name}"
        return (f"reserve {how}B in full {self.name} "
                f"(cap {self.capacity_bytes}B)")

    def _wait_info(self) -> str:
        """Deadlock-report detail: pending messages and buffered bytes."""
        cap = ("inf" if self.capacity_bytes is None
               else self.capacity_bytes)
        return (f"({len(self._pending)} pending, "
                f"{self._buffered_bytes}/{cap} B buffered)")

    def _fits_locked(self, nbytes: int) -> bool:
        return (self._buffered_bytes + nbytes <= self.capacity_bytes
                or self._buffered_bytes == 0)

    def _release_locked(self, nbytes: int) -> None:
        if self.capacity_bytes is None:
            return
        self._buffered_bytes -= nbytes
        while self._send_waiters and self._fits_locked(
                self._send_waiters[0][1]):
            proc, need = self._send_waiters.popleft()
            self._buffered_bytes += need
            self.kernel.make_ready(proc)

    def deposit(self, msg: Message) -> None:
        """Add a message; hand it directly to the oldest matching waiter.

        For bounded mailboxes the sender must have reserved space first.
        """
        kernel = self.kernel
        kernel.mutex.acquire()
        for i, (proc, source, tag) in enumerate(self._waiters):
            if _matches(msg, source, tag):
                del self._waiters[i]
                kernel.make_ready(proc, msg)
                # handed straight to a receiver: buffer space frees now
                if msg.reserved:
                    self._release_locked(msg.nbytes)
                kernel.mutex.release()
                return
        self._pending.append(msg)
        kernel.mutex.release()

    def receive(self, source: Optional[int] = None,
                tag: Optional[int] = None) -> Message:
        """Block until a matching message arrives; remove and return it."""
        kernel = self.kernel
        kernel.mutex.acquire()
        for i, msg in enumerate(self._pending):
            if _matches(msg, source, tag):
                del self._pending[i]
                if msg.reserved:
                    self._release_locked(msg.nbytes)
                kernel.mutex.release()
                return msg
        self._waiters.append((kernel.current_process(), source, tag))
        return kernel.block_current(locked=True, on=self, how=(source, tag))

    def unreserve(self, nbytes: int) -> None:
        """Return reserved-but-never-deposited space (sender gave up)."""
        if self.capacity_bytes is None:
            return
        kernel = self.kernel
        kernel.mutex.acquire()
        self._release_locked(nbytes)
        kernel.mutex.release()

    def iprobe(self, source: Optional[int] = None,
               tag: Optional[int] = None) -> bool:
        """Non-blocking: is a matching message pending?"""
        kernel = self.kernel
        kernel.mutex.acquire()
        found = any(_matches(m, source, tag) for m in self._pending)
        kernel.mutex.release()
        return found

    @property
    def backlog(self) -> int:
        return len(self._pending)


class Network:
    """The cluster interconnect: one tx/rx NIC pair per node + mailboxes.

    With a :class:`~repro.faults.injector.FaultInjector` attached, the
    network models a *reliable transport over a lossy link*: each wire
    transmission may be dropped by the injector, in which case the sender
    retransmits under ``retry`` (bounded attempts, deterministic
    backoff); NIC degradation and crashed peers stretch or black-hole
    transfers.  Without an injector, behaviour is byte-identical to the
    fault-free model.
    """

    def __init__(self, kernel: Kernel, hardware: HardwareModel,
                 n_nodes: int,
                 mailbox_capacity_bytes: Optional[int] = None,
                 injector: Optional["FaultInjector"] = None,
                 retry: Optional["RetryPolicy"] = None):
        if n_nodes < 1:
            raise CommError("network needs at least one node")
        self.kernel = kernel
        self.hardware = hardware
        self.n_nodes = n_nodes
        self.mailbox_capacity_bytes = mailbox_capacity_bytes
        self.injector = injector
        if injector is not None and retry is None:
            from repro.faults.retry import RetryPolicy
            retry = RetryPolicy()
        self.retry = retry
        self.tx = [Resource(kernel, 1, name=f"nic{r}.tx")
                   for r in range(n_nodes)]
        self.rx = [Resource(kernel, 1, name=f"nic{r}.rx")
                   for r in range(n_nodes)]
        self.mailboxes = [Mailbox(kernel, name=f"mailbox{r}",
                                  capacity_bytes=mailbox_capacity_bytes)
                          for r in range(n_nodes)]
        # accounting: bytes put on the wire per sender / taken off per receiver
        self.bytes_sent = [0] * n_nodes
        self.bytes_received = [0] * n_nodes
        self.messages = 0
        #: the ``retry.net.attempts`` histogram, looked up at the first
        #: faultable send, and the ``retry.net.retransmits`` counter, at
        #: the first retransmission
        self._m_attempts: Optional["Histogram"] = None
        self._m_retries: Optional["Counter"] = None

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.n_nodes:
            raise CommError(f"{what} rank {rank} out of range "
                            f"[0, {self.n_nodes})")

    def send(self, src: int, dst: int, payload: Any, tag: int,
             nbytes: int, meta: Optional[dict] = None) -> None:
        """Transmit ``payload`` from ``src`` to ``dst`` (timed, eager)."""
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        if nbytes < 0:
            raise CommError(f"negative message size: {nbytes}")
        if src == dst:
            # Loopback skips the NIC (a memcpy-scale cost), never reserves
            # bounded-mailbox space — a node blocking on its own full
            # mailbox could only deadlock itself — and never faults: it
            # does not traverse the wire.
            self.kernel.sleep(self.hardware.copy_time(nbytes))
            msg = Message(src, tag, payload, nbytes, self.kernel.now(),
                          meta)
        else:
            # With bounded mailboxes the sender claims destination buffer
            # space before transmitting (rendezvous-style backpressure);
            # the claim survives retransmissions and is returned if the
            # sender gives up.
            self.mailboxes[dst].reserve(nbytes)
            try:
                self._transmit(src, dst, nbytes)
            except BaseException:
                self.mailboxes[dst].unreserve(nbytes)
                raise
            msg = Message(src, tag, payload, nbytes,
                          self.kernel.now() + self.hardware.net_latency,
                          meta,
                          reserved=self.mailbox_capacity_bytes is not None)
        race = self.kernel.race
        if race is not None:
            # mailbox matching is per (source, tag), not FIFO, so the
            # clock snapshot rides the message itself
            race.stamp_message(msg)
        self.messages += 1
        self.mailboxes[dst].deposit(msg)

    def _transmit(self, src: int, dst: int, nbytes: int) -> None:
        """Put ``nbytes`` on the wire, retransmitting injected drops."""
        injector = self.injector
        if injector is None:
            self.tx[src].hold(self.hardware.wire_time(nbytes))
            self.bytes_sent[src] += nbytes
            return
        injector.check_alive(src, f"net.{src}")
        attempts = 0

        def attempt() -> None:
            nonlocal attempts
            attempts += 1
            # the degradation in force when the NIC is granted
            self.tx[src].hold(lambda: self.hardware.wire_time(nbytes)
                              * injector.wire_factor(src))
            self.bytes_sent[src] += nbytes
            if injector.message_fate(src, dst, nbytes) == "drop":
                raise FaultInjected("message dropped on the wire",
                                    site=f"net.{src}->{dst}", rank=src)

        registry = self.kernel.metrics

        def on_retry(_attempt: int, _exc: BaseException) -> None:
            if registry is not None:
                if self._m_retries is None:
                    self._m_retries = registry.counter(
                        "retry.net.retransmits")
                self._m_retries.inc()

        self.retry.call(f"net.{src}->{dst}.send", attempt,
                        sleep=self.kernel.sleep,
                        rng=injector.rng(f"retry.net.{src}"),
                        on_retry=on_retry)
        if registry is not None:
            hist = self._m_attempts
            if hist is None:
                hist = self._m_attempts = registry.histogram(
                    "retry.net.attempts", bounds=_ATTEMPT_BOUNDS)
            hist.observe(attempts)

    def recv(self, dst: int, source: Optional[int] = None,
             tag: Optional[int] = None) -> Message:
        """Consume the oldest matching message at ``dst`` (timed)."""
        self._check_rank(dst, "destination")
        msg = self.mailboxes[dst].receive(source, tag)
        gap = msg.available_at - self.kernel.now()
        if gap > 0:
            self.kernel.sleep(gap)
        if msg.src != dst:
            factor = (self.injector.wire_factor(dst)
                      if self.injector is not None else 1.0)
            self.rx[dst].hold(self.hardware.wire_time(msg.nbytes) * factor)
            self.bytes_received[dst] += msg.nbytes
        race = self.kernel.race
        if race is not None:
            race.join_message(msg)
        return msg

    def iprobe(self, dst: int, source: Optional[int] = None,
               tag: Optional[int] = None) -> bool:
        self._check_rank(dst, "destination")
        return self.mailboxes[dst].iprobe(source, tag)
