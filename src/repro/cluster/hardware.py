"""Hardware cost model: the parameters behind every simulated latency.

The defaults are a "paper-like preset" calibrated to the evaluation platform
of the paper (Section VI): 16 nodes, two 2.8 GHz Xeons per node, one
Ultra-320 SCSI disk per node, and a 2 Gb/s Myrinet interconnect.  The goal
of the calibration is *shape*, not absolute minutes: disk I/O should be the
dominant cost, communication close behind, and in-memory computation cheap
enough that a well-overlapped pipeline is I/O-bound — the regime in which
the paper's dsort-vs-csort comparison happens.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

__all__ = ["HardwareModel"]


@dataclasses.dataclass(frozen=True)
class HardwareModel:
    """Cost parameters for one cluster node and its network interface.

    All bandwidths are bytes/second, all latencies seconds.
    """

    #: number of CPU cores per node (paper: two Xeons)
    cores_per_node: int = 2
    #: sequential disk bandwidth (Ultra-320-era sequential rate)
    disk_bandwidth: float = 60e6
    #: fixed per-operation disk cost (seek + rotational + syscall)
    disk_seek: float = 5e-3
    #: NIC bandwidth per direction (2 Gb/s Myrinet)
    net_bandwidth: float = 250e6
    #: one-way network latency
    net_latency: float = 10e-6
    #: comparison-sort cost: seconds per (record * log2(records))
    sort_cost_per_key_log: float = 8e-9
    #: per-byte cost of in-memory permutation / copying (memcpy-like)
    copy_cost_per_byte: float = 0.5e-9
    #: per-record cost of one k-way merge step (loser-tree update)
    merge_cost_per_record: float = 25e-9

    def __post_init__(self) -> None:
        cores = self.cores_per_node
        if (isinstance(cores, bool) or not isinstance(cores, numbers.Integral)
                or cores < 1):
            raise ValueError(
                f"cores_per_node must be an integer >= 1: {cores!r}")
        for field in ("disk_bandwidth", "net_bandwidth", "disk_seek",
                      "net_latency", "sort_cost_per_key_log",
                      "copy_cost_per_byte", "merge_cost_per_record"):
            value = getattr(self, field)
            if not (isinstance(value, numbers.Real)
                    and math.isfinite(value)):
                raise ValueError(f"{field} must be finite: {value!r}")
        for field in ("disk_bandwidth", "net_bandwidth"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be > 0")
        for field in ("disk_seek", "net_latency", "sort_cost_per_key_log",
                      "copy_cost_per_byte", "merge_cost_per_record"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")

    # -- derived costs ------------------------------------------------------

    def disk_time(self, nbytes: int) -> float:
        """Time for one disk operation transferring ``nbytes``."""
        return self.disk_seek + nbytes / self.disk_bandwidth

    def wire_time(self, nbytes: int) -> float:
        """Link occupancy for ``nbytes`` (excludes propagation latency)."""
        return nbytes / self.net_bandwidth

    def sort_time(self, nrecords: int) -> float:
        """In-memory comparison-sort cost for ``nrecords``."""
        if nrecords <= 1:
            return 0.0
        return self.sort_cost_per_key_log * nrecords * math.log2(nrecords)

    def copy_time(self, nbytes: int) -> float:
        """In-memory permutation/copy cost for ``nbytes``."""
        return self.copy_cost_per_byte * nbytes

    def merge_time(self, nrecords: int) -> float:
        """Cost of advancing a k-way merge by ``nrecords`` outputs."""
        return self.merge_cost_per_record * nrecords

    # -- presets ------------------------------------------------------------------

    @classmethod
    def paper_cluster(cls) -> "HardwareModel":
        """The Section-VI platform (defaults verbatim)."""
        return cls()

    @classmethod
    def scaled_paper_cluster(cls, scale: float = 1.0 / 64.0) -> "HardwareModel":
        """The paper platform with per-operation overheads scaled down.

        The paper ran with "the best choices of buffer sizes" — multi-
        megabyte blocks that amortize the per-operation disk overhead to a
        few percent of each transfer.  Simulation-scale runs use blocks a
        couple of orders of magnitude smaller; keeping seek/latency at
        full size would make *overhead*, not bandwidth, the bottleneck and
        distort the dsort/csort comparison (both algorithms, differently).
        Scaling ``disk_seek`` and ``net_latency`` by the block-size ratio
        (default 1/64 ~ 64 KiB simulated blocks vs ~4 MiB tuned blocks)
        restores the paper's overhead:transfer proportions.  Bandwidths
        and compute rates are untouched.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        base = cls()
        return cls(disk_seek=base.disk_seek * scale,
                   net_latency=base.net_latency * scale)

    @classmethod
    def uniform(cls, rate: float) -> "HardwareModel":
        """Disk and network at the same rate; useful in analytic tests."""
        return cls(disk_bandwidth=rate, net_bandwidth=rate,
                   disk_seek=0.0, net_latency=0.0)
