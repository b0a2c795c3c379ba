"""One cluster node: disk + NICs + CPU cores + compute-cost helpers.

A :class:`Node` owns the per-node hardware and exposes the compute-cost
helpers that FG stages use to charge for in-memory work (sorting,
permuting, merging).  The cores resource has the paper's capacity of two,
so two stages may compute simultaneously on a node but a third waits —
exactly the effect that lets FG overlap computation with I/O on multicore
nodes (paper, Section II).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.disk import Disk
from repro.cluster.hardware import HardwareModel
from repro.cluster.storage import MemoryStorage, Storage
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy

__all__ = ["Node"]


class Node:
    """A single node of the simulated cluster."""

    def __init__(self, kernel: Kernel, rank: int, hardware: HardwareModel,
                 storage: Optional[Storage] = None,
                 injector: Optional["FaultInjector"] = None,
                 retry: Optional["RetryPolicy"] = None):
        self.kernel = kernel
        self.rank = rank
        self.hardware = hardware
        self.injector = injector
        self.storage = storage if storage is not None else MemoryStorage()
        self.disk = Disk(kernel, self.storage, hardware,
                         name=f"node{rank}.disk", rank=rank,
                         injector=injector, retry=retry)
        self.cores = Resource(kernel, hardware.cores_per_node,
                              name=f"node{rank}.cores")
        #: accumulated modeled compute seconds (stats)
        self.compute_time = 0.0

    # -- compute charging ---------------------------------------------------

    def compute(self, seconds: float) -> None:
        """Occupy one core for ``seconds`` of modeled computation.

        On a straggler node the injector stretches the charge; on a
        crashed node the charge raises a permanent fault.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds == 0.0:
            return
        if self.injector is not None:
            self.injector.check_alive(self.rank,
                                      f"node{self.rank}.compute")
            seconds *= self.injector.compute_factor(self.rank)
        self.cores.hold(seconds)
        self.compute_time += seconds

    def compute_sort(self, nrecords: int) -> None:
        """Charge for comparison-sorting ``nrecords`` in memory."""
        self.compute(self.hardware.sort_time(nrecords))

    def compute_copy(self, nbytes: int) -> None:
        """Charge for permuting/copying ``nbytes`` in memory."""
        self.compute(self.hardware.copy_time(nbytes))

    def compute_merge(self, nrecords: int) -> None:
        """Charge for advancing a k-way merge by ``nrecords`` outputs."""
        self.compute(self.hardware.merge_time(nrecords))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.rank}>"
