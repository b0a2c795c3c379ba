"""Declarative, seeded fault plans.

A :class:`FaultPlan` is pure data: a seed plus a list of fault
specifications against the simulated cluster's disks, links, and nodes.
Nothing here draws random numbers or looks at a clock — the
:class:`~repro.faults.injector.FaultInjector` turns a plan into runtime
decisions, deriving every probabilistic draw from ``(seed, spec, site)``
so that two runs of the same program with the same plan produce the same
faults at the same virtual times.

Spec kinds:

* :class:`DiskFaults` — per-operation fault probability for a disk (or
  all disks) inside a virtual-time window; transient by default;
* :class:`DiskFaultAt` — one fault at exactly the Nth timed operation of
  one disk (the deterministic way to kill a specific pass);
* :class:`MessageDrops` — per-message drop probability on the wire;
* :class:`NicDegradation` — wire-time multiplier for one node's NICs;
* :class:`Straggler` — compute/disk slowdown multiplier for one node;
* :class:`NodeCrash` — the node fails permanently at a virtual time.

Example::

    plan = (FaultPlan(seed=7)
            .with_disk_faults(rate=0.02)
            .with_message_drops(rate=0.01)
            .with_straggler(rank=1, slowdown=3.0))
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import FaultError
from repro.jsondoc import Document, to_doc

__all__ = [
    "DiskFaults",
    "DiskFaultAt",
    "MessageDrops",
    "NicDegradation",
    "Straggler",
    "NodeCrash",
    "FaultPlan",
]


def _check_window(start: float, end: Optional[float]) -> None:
    if start < 0:
        raise FaultError(f"fault window start must be >= 0, got {start}")
    if end is not None and end < start:
        raise FaultError(f"fault window end {end} precedes start {start}")


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"fault rate must be in [0, 1], got {rate}")


def in_window(start: float, end: Optional[float], now: float) -> bool:
    """True when ``now`` falls inside the half-open window [start, end)."""
    return now >= start and (end is None or now < end)


@dataclasses.dataclass(frozen=True)
class DiskFaults:
    """Probabilistic per-operation disk faults.

    ``rank=None`` targets every disk.  ``permanent=False`` (transient)
    faults are retried by the disk's retry policy; permanent faults fail
    the operation immediately.
    """

    rate: float
    rank: Optional[int] = None
    permanent: bool = False
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        _check_window(self.start, self.end)


@dataclasses.dataclass(frozen=True)
class DiskFaultAt:
    """One fault at exactly operation ``op_index`` (0-based, counted per
    disk over the whole run, so the fault fires at most once)."""

    rank: int
    op_index: int
    permanent: bool = True

    def __post_init__(self) -> None:
        if self.op_index < 0:
            raise FaultError(f"op_index must be >= 0, got {self.op_index}")


@dataclasses.dataclass(frozen=True)
class MessageDrops:
    """Probabilistic message loss on the wire.

    ``src``/``dst`` of ``None`` match any sender/receiver.  Loopback
    messages never traverse the wire and are never dropped.
    """

    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        _check_window(self.start, self.end)


@dataclasses.dataclass(frozen=True)
class NicDegradation:
    """Multiply wire time for one node's NICs (``rank=None``: all)."""

    factor: float
    rank: Optional[int] = None
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise FaultError(
                f"degradation factor must be >= 1, got {self.factor}")
        _check_window(self.start, self.end)


@dataclasses.dataclass(frozen=True)
class Straggler:
    """Multiply one node's compute and disk service times."""

    rank: int
    slowdown: float
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise FaultError(
                f"straggler slowdown must be >= 1, got {self.slowdown}")
        _check_window(self.start, self.end)


@dataclasses.dataclass(frozen=True)
class NodeCrash:
    """The node fails permanently at virtual time ``at``: every later
    disk/compute/send operation it attempts raises a permanent fault, and
    messages addressed to it are black-holed (senders see drops)."""

    rank: int
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError(f"crash time must be >= 0, got {self.at}")


@dataclasses.dataclass(eq=False)
class FaultPlan(Document):
    """A seed plus an ordered list of fault specifications.

    Immutable in spirit: the ``with_*`` builders return ``self`` for
    chaining but must be called before the plan is handed to an injector.
    """

    _doc_error = FaultError

    seed: int = 0
    disk_faults: list[DiskFaults] = dataclasses.field(default_factory=list)
    disk_fault_ats: list[DiskFaultAt] = dataclasses.field(default_factory=list)
    message_drops: list[MessageDrops] = dataclasses.field(default_factory=list)
    nic_degradations: list[NicDegradation] = dataclasses.field(
        default_factory=list)
    stragglers: list[Straggler] = dataclasses.field(default_factory=list)
    node_crashes: list[NodeCrash] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self.seed = int(self.seed)

    # -- builders -----------------------------------------------------------

    def with_disk_faults(self, rate: float, rank: Optional[int] = None,
                         permanent: bool = False, start: float = 0.0,
                         end: Optional[float] = None) -> "FaultPlan":
        self.disk_faults.append(DiskFaults(rate, rank, permanent,
                                           start, end))
        return self

    def with_disk_fault_at(self, rank: int, op_index: int,
                           permanent: bool = True) -> "FaultPlan":
        self.disk_fault_ats.append(DiskFaultAt(rank, op_index, permanent))
        return self

    def with_message_drops(self, rate: float, src: Optional[int] = None,
                           dst: Optional[int] = None, start: float = 0.0,
                           end: Optional[float] = None) -> "FaultPlan":
        self.message_drops.append(MessageDrops(rate, src, dst, start, end))
        return self

    def with_nic_degradation(self, factor: float,
                             rank: Optional[int] = None,
                             start: float = 0.0,
                             end: Optional[float] = None) -> "FaultPlan":
        self.nic_degradations.append(NicDegradation(factor, rank,
                                                    start, end))
        return self

    def with_straggler(self, rank: int, slowdown: float,
                       start: float = 0.0,
                       end: Optional[float] = None) -> "FaultPlan":
        self.stragglers.append(Straggler(rank, slowdown, start, end))
        return self

    def with_node_crash(self, rank: int, at: float) -> "FaultPlan":
        self.node_crashes.append(NodeCrash(rank, at))
        return self

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """The plan as pure JSON-able data (spec kinds it has none of
        left out); inverse of :meth:`from_json`.

        Round-trip exact: ``FaultPlan.from_json(plan.to_json())`` drives
        an injector to the identical fault timeline, which is what lets
        a provenance record re-create a chaos run byte-exactly.
        """
        return {field: value for field, value in to_doc(self).items()
                if value or field == "seed"}

    # -- introspection ------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not (self.disk_faults or self.disk_fault_ats
                    or self.message_drops or self.nic_degradations
                    or self.stragglers or self.node_crashes)

    def describe(self) -> str:
        """One line per spec, for logs and the chaos CLI."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for group in (self.disk_faults, self.disk_fault_ats,
                      self.message_drops, self.nic_degradations,
                      self.stragglers, self.node_crashes):
            lines.extend(f"  {spec}" for spec in group)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n = (len(self.disk_faults) + len(self.disk_fault_ats)
             + len(self.message_drops) + len(self.nic_degradations)
             + len(self.stragglers) + len(self.node_crashes))
        return f"<FaultPlan seed={self.seed} specs={n}>"


def chaos_plan(seed: int, n_nodes: int, *,
               disk_fault_rate: float = 0.02,
               drop_rate: float = 0.01,
               straggler_rank: Optional[int] = None,
               straggler_slowdown: float = 3.0,
               permanent_disk_op: Optional[int] = None,
               permanent_disk_rank: int = 0) -> FaultPlan:
    """The standard chaos recipe: transient disk faults everywhere,
    message drops everywhere, optionally one straggler node and one
    permanent disk fault (which forces a pass-level restart)."""
    plan = FaultPlan(seed=seed)
    if disk_fault_rate > 0:
        plan.with_disk_faults(rate=disk_fault_rate)
    if drop_rate > 0:
        plan.with_message_drops(rate=drop_rate)
    if straggler_rank is not None:
        if not 0 <= straggler_rank < n_nodes:
            raise FaultError(f"straggler rank {straggler_rank} out of "
                             f"range [0, {n_nodes})")
        plan.with_straggler(rank=straggler_rank,
                            slowdown=straggler_slowdown)
    if permanent_disk_op is not None:
        plan.with_disk_fault_at(rank=permanent_disk_rank,
                                op_index=permanent_disk_op)
    return plan
