"""Splitter selection by oversampling, with extended keys.

The preprocessing phase picks P-1 splitters so that pass 1 can route each
record to its partition.  Following the paper (and Blelloch et al. /
Seshadri & Naughton), each node draws an oversample of its local records;
the samples are gathered, sorted, and every (oversample)-th element becomes
a splitter.

**Extended keys** (paper, Section V): to guard against heavily unbalanced
partitions when keys repeat (all-equal, Poisson), each key is extended to
the unique triple ``(key, origin node, origin position)``.  Splitters carry
their extension; a record belongs to partition ``i`` = number of splitters
whose extended key is strictly below the record's.  The extension never
becomes part of any record — it is recomputed from a record's provenance.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema

__all__ = ["Splitters", "select_splitters", "partition_ids"]


@dataclasses.dataclass(frozen=True)
class Splitters:
    """P-1 splitters with their extended-key components, sorted ascending
    by (key, node, index)."""

    keys: np.ndarray     #: uint64 splitter keys
    nodes: np.ndarray    #: origin node of each splitter sample
    indices: np.ndarray  #: origin record position of each splitter sample

    def __post_init__(self):
        if not (len(self.keys) == len(self.nodes) == len(self.indices)):
            raise SortError("splitter component lengths differ")

    @property
    def n_partitions(self) -> int:
        return len(self.keys) + 1


def _sample_chunks(n_local: int, count: int, n_chunks: int,
                   rng: np.random.Generator) -> list[tuple[int, int]]:
    """Stratified contiguous (start, length) chunks totalling ~``count``
    records.  Reading a handful of chunks instead of ``count`` scattered
    records keeps the sampling phase's seek cost negligible, as the paper
    reports it to be."""
    count = min(count, n_local)
    n_chunks = max(1, min(n_chunks, count))
    per_chunk = -(-count // n_chunks)
    chunks = []
    stratum = n_local / n_chunks
    for c in range(n_chunks):
        lo = int(c * stratum)
        hi = max(lo + 1, int((c + 1) * stratum))
        length = min(per_chunk, hi - lo)
        start = lo + int(rng.integers(0, max(1, hi - lo - length + 1)))
        chunks.append((start, length))
    return chunks


def select_splitters(node: Node, comm: Comm, schema: RecordSchema,
                     input_file: str, oversample: int = 32,
                     seed: int = 0) -> Splitters:
    """SPMD splitter selection: sample, gather, sort, pick, broadcast.

    Every rank must call this; all ranks return the same splitters.
    Sampling charges the disk for one record-sized read per sample (the
    paper reports this phase as negligible, and it is here too).
    """
    if oversample < 1:
        raise SortError(f"oversample must be >= 1, got {oversample}")
    rf = RecordFile(node.disk, input_file, schema)
    n_local = rf.n_records
    rng = np.random.default_rng(seed + 7919 * comm.rank)
    chunks = _sample_chunks(n_local, oversample * comm.size, 16, rng)
    key_parts = []
    pos_parts = []
    for start, length in chunks:
        key_parts.append(rf.read(start, length)["key"])
        pos_parts.append(np.arange(start, start + length, dtype=np.int64))
    keys = np.concatenate(key_parts)
    positions = np.concatenate(pos_parts)
    sample = {"keys": keys, "positions": positions}

    gathered = comm.gather(sample, root=0)
    if comm.rank == 0:
        all_keys = np.concatenate([g["keys"] for g in gathered])
        all_nodes = np.concatenate([
            np.full(len(g["keys"]), r, dtype=np.int64)
            for r, g in enumerate(gathered)])
        all_pos = np.concatenate([g["positions"] for g in gathered])
        # sort samples by extended key (key, node, position)
        order = np.lexsort((all_pos, all_nodes, all_keys))
        all_keys, all_nodes, all_pos = (all_keys[order], all_nodes[order],
                                        all_pos[order])
        total = len(all_keys)
        picks = [(i + 1) * total // comm.size - 1
                 for i in range(comm.size - 1)]
        picks = np.asarray(picks, dtype=np.int64)
        chosen = {
            "keys": all_keys[picks],
            "nodes": all_nodes[picks],
            "indices": all_pos[picks],
        }
    else:
        chosen = None
    chosen = comm.bcast(chosen, root=0)
    return Splitters(keys=chosen["keys"], nodes=chosen["nodes"],
                     indices=chosen["indices"])


def partition_ids(keys: np.ndarray, rank: int, positions: np.ndarray,
                  splitters: Splitters) -> np.ndarray:
    """Partition index of each record, by extended-key comparison.

    ``keys`` are the records' sort keys, ``positions`` their positions in
    this node's input file, and ``rank`` this node — together forming each
    record's unique extended key ``(key, rank, position)``.  Vectorized:
    one binary search places every key after the splitters at or below
    it; a key collides only when the splitter just below its slot equals
    it, and only the colliding keys take the second (``side="left"``)
    search and the (at most P-1 element) extension loop.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.int64)
    if keys.shape != positions.shape:
        raise SortError("keys and positions must align")
    skeys = splitters.keys
    part = np.searchsorted(skeys, keys, side="right").astype(np.int64,
                                                            copy=False)
    if not len(skeys):
        return part
    # part - 1 wraps to the last splitter at part 0, where the key is
    # below every splitter, so it never compares equal there
    collide = np.nonzero(skeys[part - 1] == keys)[0]
    if len(collide):
        u = part[collide]
        b = np.searchsorted(skeys, keys[collide], side="left")
        pos = positions[collide]
        extra = np.zeros(len(collide), dtype=np.int64)
        for bb, uu in set(zip(b.tolist(), u.tolist())):
            sel = (b == bb) & (u == uu)
            snodes = splitters.nodes[bb:uu]
            sidx = splitters.indices[bb:uu]
            p_sel = pos[sel]
            # count splitters with extension strictly below (rank, pos)
            below = ((snodes[None, :] < rank)
                     | ((snodes[None, :] == rank)
                        & (sidx[None, :] < p_sel[:, None])))
            extra[sel] = below.sum(axis=1)
        part[collide] = b + extra
    return part
