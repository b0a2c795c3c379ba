"""Runtime fault injection: turning a :class:`FaultPlan` into decisions.

The :class:`FaultInjector` is consulted by the cluster layers at well
defined *sites* — one per timed disk operation, one per wire message, one
per compute charge — and answers deterministically:

* every probabilistic draw comes from a per-site ``numpy`` Philox stream
  seeded with ``(plan.seed, crc32(site))``, so the draw sequence of one
  site is independent of every other site's traffic;
* draws are consumed in kernel execution order, which the virtual-time
  kernel serializes, so two runs of the same program with the same plan
  see identical faults at identical virtual times.

Every decision that fires is recorded as a :class:`FaultEvent` (and, when
the kernel carries a metrics registry or tracer, as ``faults.*`` counters
and ``fault`` trace events that the Chrome exporter renders as instant
markers).
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import FaultInjected
from repro.faults.plan import FaultPlan, in_window
from repro.sim.kernel import Kernel
from repro.sim.trace import FAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import Counter

__all__ = ["FaultEvent", "FaultInjector"]


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fault decision that fired, stamped in virtual time."""

    time: float
    kind: str     #: "disk" | "disk.permanent" | "net.drop" | "node.crash"
    site: str     #: e.g. "disk.3", "net.0->2"
    rank: int
    detail: str


class FaultInjector:
    """Deterministic oracle answering "does this operation fault?"."""

    def __init__(self, kernel: Kernel, plan: FaultPlan, n_nodes: int):
        self.kernel = kernel
        self.plan = plan
        self.n_nodes = n_nodes
        self.events: list[FaultEvent] = []
        #: ``faults.<kind>`` counters, each looked up at its first fault
        self._m_faults: dict[str, "Counter"] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        #: timed-operation counter per disk (drives DiskFaultAt)
        self.disk_ops = [0] * n_nodes
        self._crash_at = {c.rank: c.at for c in plan.node_crashes}

    # -- deterministic streams ---------------------------------------------

    def rng(self, site: str) -> np.random.Generator:
        """The Philox stream for one site, created on first use."""
        gen = self._rngs.get(site)
        if gen is None:
            seq = np.random.SeedSequence(
                [self.plan.seed, zlib.crc32(site.encode("utf-8"))])
            gen = np.random.Generator(np.random.Philox(seq))
            self._rngs[site] = gen
        return gen

    # -- recording ----------------------------------------------------------

    def _record(self, kind: str, site: str, rank: int, detail: str) -> None:
        now = self.kernel.now()
        self.events.append(FaultEvent(now, kind, site, rank, detail))
        registry = self.kernel.metrics
        if registry is not None:
            counter = self._m_faults.get(kind)
            if counter is None:
                counter = self._m_faults[kind] = registry.counter(
                    f"faults.{kind}")
            counter.inc()
        tracer = getattr(self.kernel, "tracer", None)
        if tracer is not None:
            name = (self.kernel.current_process().name
                    if self.kernel.in_process() else site)
            tracer.record(now, name, FAULT, f"{kind} @ {site}: {detail}")

    # -- node liveness ------------------------------------------------------

    def crashed(self, rank: int) -> bool:
        """True once ``rank``'s crash time has passed."""
        at = self._crash_at.get(rank)
        return at is not None and self.kernel.now() >= at

    def check_alive(self, rank: int, site: str) -> None:
        """Raise a permanent fault when ``rank`` has crashed."""
        if self.crashed(rank):
            self._record("node.crash", site, rank,
                         f"node {rank} is down (crashed at "
                         f"t={self._crash_at[rank]:g})")
            raise FaultInjected(f"node {rank} has crashed", site=site,
                                rank=rank, permanent=True)

    # -- disk site ----------------------------------------------------------

    def disk_op(self, rank: int, op: str, nbytes: int) -> None:
        """Consulted once per timed disk operation; raises on fault.

        Counts the operation (for :class:`~repro.faults.plan.DiskFaultAt`)
        even when no fault fires, so op indices are stable.
        """
        site = f"disk.{rank}"
        index = self.disk_ops[rank]
        self.disk_ops[rank] += 1
        self.check_alive(rank, site)
        for spec in self.plan.disk_fault_ats:
            if spec.rank == rank and spec.op_index == index:
                kind = "disk.permanent" if spec.permanent else "disk"
                self._record(kind, site, rank,
                             f"{op} op #{index} ({nbytes} B)")
                raise FaultInjected(
                    f"disk {op} op #{index} failed (scheduled)",
                    site=site, rank=rank, permanent=spec.permanent)
        now = self.kernel.now()
        for spec in self.plan.disk_faults:
            if spec.rank is not None and spec.rank != rank:
                continue
            if not in_window(spec.start, spec.end, now):
                continue
            if float(self.rng(site).random()) < spec.rate:
                kind = "disk.permanent" if spec.permanent else "disk"
                self._record(kind, site, rank,
                             f"{op} op #{index} ({nbytes} B)")
                raise FaultInjected(f"disk {op} media error",
                                    site=site, rank=rank,
                                    permanent=spec.permanent)

    def disk_factor(self, rank: int) -> float:
        """Service-time multiplier for ``rank``'s disk (stragglers)."""
        return self._straggler_factor(rank)

    # -- network site --------------------------------------------------------

    def message_fate(self, src: int, dst: int, nbytes: int) -> str:
        """``"deliver"`` or ``"drop"`` for one wire transmission.

        A crashed destination black-holes traffic: the sender sees the
        message vanish exactly as a drop (and its bounded retransmits
        exhaust).  The sender's own liveness is checked separately via
        :meth:`check_alive`.
        """
        site = f"net.{src}->{dst}"
        if self.crashed(dst):
            self._record("net.drop", site, src,
                         f"{nbytes} B black-holed: node {dst} is down")
            return "drop"
        now = self.kernel.now()
        for spec in self.plan.message_drops:
            if spec.src is not None and spec.src != src:
                continue
            if spec.dst is not None and spec.dst != dst:
                continue
            if not in_window(spec.start, spec.end, now):
                continue
            if float(self.rng(site).random()) < spec.rate:
                self._record("net.drop", site, src,
                             f"{nbytes} B dropped on the wire")
                return "drop"
        return "deliver"

    def wire_factor(self, rank: int) -> float:
        """Wire-time multiplier for ``rank``'s NICs (degradation)."""
        factor = 1.0
        now = self.kernel.now()
        for spec in self.plan.nic_degradations:
            if spec.rank is not None and spec.rank != rank:
                continue
            if in_window(spec.start, spec.end, now):
                factor *= spec.factor
        return factor

    # -- compute site --------------------------------------------------------

    def compute_factor(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (stragglers)."""
        return self._straggler_factor(rank)

    def _straggler_factor(self, rank: int) -> float:
        factor = 1.0
        now = self.kernel.now()
        for spec in self.plan.stragglers:
            if spec.rank == rank and in_window(spec.start, spec.end, now):
                factor *= spec.slowdown
        return factor

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Counts of fired faults by kind (JSON-able)."""
        by_kind: dict[str, int] = {}
        for ev in self.events:
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
        return {"total": len(self.events), "by_kind": by_kind}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector seed={self.plan.seed} "
                f"fired={len(self.events)}>")
