"""Striped files: the Parallel Disk Model output layout.

"The records reside in fixed-size blocks, which are assigned in
round-robin order to the disks in the cluster" (paper, Section V).  Global
block ``b`` lives on node ``b % P`` at local block ``b // P``.  Both dsort
and csort write their final output through this layout, which makes their
outputs byte-comparable and lets one verifier check both.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema

__all__ = ["StripedFile", "local_record", "striped_share"]

#: bytes per chunk of :meth:`StripedFile.iter_chunks`, rounded down to
#: whole stripe rounds
CHUNK_BYTES = 1 << 20


def striped_share(total_records: int, block_records: int, width: int,
                  position: int) -> int:
    """Records the ``position``-th of ``width`` owners holds of a
    ``total_records``-record striped file: its block of every full
    stripe round, plus what a ragged last round leaves it."""
    full, rest = divmod(total_records, width * block_records)
    return (full * block_records
            + min(max(rest - position * block_records, 0), block_records))


def local_record(global_block: int, offset: int, block_records: int,
                 width: int) -> int:
    """Position, in its owner's local file, of record ``offset`` of
    ``global_block`` under a stripe ``width`` owners wide."""
    return (global_block // width) * block_records + offset


class StripedFile:
    """A record file striped block-round-robin across cluster disks.

    By default every node owns a stripe.  After a node crash the
    recovery manager re-stripes the output over the *survivors* only;
    pass ``owners`` (the surviving ranks, in stripe order) to address
    such a file: global block ``b`` then lives on node
    ``owners[b % len(owners)]`` at local block ``b // len(owners)``.
    """

    def __init__(self, cluster: Cluster, name: str, schema: RecordSchema,
                 block_records: int,
                 owners: Optional[Sequence[int]] = None):
        if block_records < 1:
            raise SortError("block_records must be >= 1")
        self.cluster = cluster
        self.name = name
        self.schema = schema
        self.block_records = block_records
        self.owners = (list(owners) if owners is not None
                       else list(range(cluster.n_nodes)))
        if not self.owners:
            raise SortError("striped file needs at least one owner node")
        self.locals = [RecordFile(node.disk, name, schema)
                       for node in cluster.nodes]

    # -- geometry -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.cluster.n_nodes

    @property
    def stripe_width(self) -> int:
        """Number of disks the file is striped over (== n_nodes unless a
        survivor layout was supplied)."""
        return len(self.owners)

    def node_of_block(self, global_block: int) -> int:
        return self.owners[global_block % self.stripe_width]

    def local_block(self, global_block: int) -> int:
        return global_block // self.stripe_width

    def block_of_record(self, global_record: int) -> int:
        return global_record // self.block_records

    def locate(self, global_record: int) -> tuple[int, int]:
        """(node, local record index) of a global record position."""
        block = self.block_of_record(global_record)
        return (self.node_of_block(block),
                local_record(block, global_record % self.block_records,
                             self.block_records, self.stripe_width))

    # -- timed I/O -----------------------------------------------------------------

    def write_block(self, global_block: int, records: np.ndarray,
                    offset_records: int = 0) -> None:
        """Write ``records`` into ``global_block`` starting at
        ``offset_records`` within the block (timed, charges the owner disk)."""
        if offset_records + len(records) > self.block_records:
            raise SortError(
                f"write of {len(records)} records at offset "
                f"{offset_records} overflows block of {self.block_records}")
        node = self.node_of_block(global_block)
        self.locals[node].write(
            local_record(global_block, offset_records, self.block_records,
                         self.stripe_width), records)

    def read_block(self, global_block: int) -> np.ndarray:
        """Read one whole block (timed)."""
        node = self.node_of_block(global_block)
        return self.locals[node].read(
            local_record(global_block, 0, self.block_records,
                         self.stripe_width), self.block_records)

    # -- untimed verification helpers ---------------------------------------------------

    def total_records(self) -> int:
        # sum only the owner disks: after re-assignment a dead node may
        # still hold a stale partial file from the aborted epoch
        return sum(self.locals[rank].n_records
                   for rank in sorted(set(self.owners)))

    def _read_rounds(self, lo: int, hi: int, total: int) -> np.ndarray:
        """Records of stripe rounds ``[lo, hi)`` of a ``total``-record
        file, in global order (round i is global blocks i*W .. i*W+W-1)."""
        B, W = self.block_records, self.stripe_width
        # grid[i, k] is global block (lo+i)*W + k; owner k's file is
        # column k, block after block, so its part of the range is one
        # read — whole blocks, then what a ragged last round leaves it
        grid = self.schema.empty((hi - lo) * W * B).reshape(hi - lo, W, B)
        for k, rank in enumerate(self.owners):
            count = min(hi * B, striped_share(total, B, W, k)) - lo * B
            if count > 0:
                held = self.locals[rank].peek(lo * B, count)
                whole = count // B
                grid[:whole, k] = held[:whole * B].reshape(whole, B)
                if count > whole * B:
                    grid[whole, k, :count - whole * B] = held[whole * B:]
        return grid.reshape(-1)[:min(hi * W * B, total) - lo * W * B]

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Untimed read in global (PDM) order, about ``CHUNK_BYTES`` at a
        time: whole stripe rounds per chunk (at least one), the last
        chunk ending with the file.  What verification and the output
        digests walk, so checking a file never holds a copy of it."""
        total = self.total_records()
        round_records = self.stripe_width * self.block_records
        rounds = -(-total // round_records)
        step = max(1, CHUNK_BYTES // self.schema.nbytes(round_records))
        for lo in range(0, rounds, step):
            yield self._read_rounds(lo, min(lo + step, rounds), total)

    def read_all(self) -> np.ndarray:
        """Untimed read of all records in global (PDM) order."""
        total = self.total_records()
        rounds = -(-total // (self.stripe_width * self.block_records))
        return self._read_rounds(0, rounds, total)

    def sha256(self) -> str:
        """Hex sha256 over the raw record bytes in global order — equal
        to ``hashlib.sha256(read_all().tobytes())``, fed chunk by chunk."""
        digest = hashlib.sha256()
        for chunk in self.iter_chunks():
            digest.update(chunk.view(np.uint8))
        return digest.hexdigest()

    def delete(self) -> None:
        for f in self.locals:
            f.delete()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<StripedFile {self.name!r}: {self.total_records()} records "
                f"in {self.block_records}-record blocks over "
                f"{self.stripe_width} nodes>")
