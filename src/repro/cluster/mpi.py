"""MPI-like communicator over the simulated network.

The paper's programs use a thread-safe MPI (``MPI_Send``/``MPI_Recv``,
``MPI_Alltoall``, ``MPI_Sendrecv_replace``, broadcast of splitters, ...).
:class:`Comm` provides the equivalents.  One :class:`Comm` exists per node;
any pipeline-stage thread on that node may call it (the kernel serializes
state access), which is precisely the "link in a thread-safe MPI"
requirement the paper states.

Conventions:

* user tags are non-negative integers; collectives use a reserved negative
  tag space internally;
* payloads are usually numpy arrays (sized by ``.nbytes``); any other
  object is sized by its pickled length;
* ``recv`` returns ``(source, payload)`` so wildcard receives remain
  informative;
* collectives must be called by every rank in the same order (SPMD
  discipline); per-(source, tag) FIFO matching then keeps successive
  collectives from interfering.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Sequence

import numpy as np

from repro.cluster.network import Network
from repro.errors import CommError

__all__ = ["Comm", "ANY_SOURCE", "ANY_TAG"]

#: wildcard source for :meth:`Comm.recv`
ANY_SOURCE: Optional[int] = None
#: wildcard tag for :meth:`Comm.recv`
ANY_TAG: Optional[int] = None

# reserved internal tags (all negative; user tags must be >= 0)
_TAG_BCAST = -1
_TAG_BARRIER_IN = -2
_TAG_BARRIER_OUT = -3
_TAG_GATHER = -4
_TAG_SCATTER = -5
_TAG_ALLTOALL = -6
_TAG_SENDRECV = -7
_TAG_REDUCE = -8


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload: array bytes, or pickled length otherwise."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class Comm:
    """Communicator bound to one node of the cluster."""

    def __init__(self, network: Network, rank: int):
        self.network = network
        self.rank = rank
        self.size = network.n_nodes

    # -- point to point ------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0,
             meta: Optional[dict] = None) -> None:
        """Blocking (eager) send: returns once the bytes left our NIC.

        ``meta`` is a small out-of-band dict (block ids, offsets) charged
        as a fixed 64-byte header on top of the payload size.
        """
        if tag < 0:
            raise CommError(f"user tags must be >= 0, got {tag}")
        nbytes = payload_nbytes(payload) + (64 if meta else 0)
        self.network.send(self.rank, dest, payload, tag, nbytes, meta)

    def recv(self, source: Optional[int] = ANY_SOURCE,
             tag: Optional[int] = ANY_TAG) -> tuple[int, Any]:
        """Blocking receive; returns ``(source, payload)``."""
        msg = self.recv_msg(source, tag)
        return msg.src, msg.payload

    def recv_msg(self, source: Optional[int] = ANY_SOURCE,
                 tag: Optional[int] = ANY_TAG):
        """Blocking receive returning the full
        :class:`~repro.cluster.network.Message` (payload, tag, src, meta)."""
        if tag is not None and tag < 0:
            raise CommError(f"user tags must be >= 0, got {tag}")
        return self.network.recv(self.rank, source, tag)

    def iprobe(self, source: Optional[int] = ANY_SOURCE,
               tag: Optional[int] = ANY_TAG) -> bool:
        """Non-blocking test for a matching pending message."""
        return self.network.iprobe(self.rank, source, tag)

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        """Synchronize all ranks (flat gather-to-0 then release)."""
        if self.size == 1:
            return
        if self.rank == 0:
            for src in range(1, self.size):
                self.network.recv(self.rank, src, _TAG_BARRIER_IN)
            for dst in range(1, self.size):
                self.network.send(0, dst, b"", _TAG_BARRIER_OUT, 0)
        else:
            self.network.send(self.rank, 0, b"", _TAG_BARRIER_IN, 0)
            self.network.recv(self.rank, 0, _TAG_BARRIER_OUT)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root``; every rank returns it."""
        self._check_root(root)
        if self.size == 1:
            return payload
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.network.send(root, dst, payload, _TAG_BCAST,
                                      payload_nbytes(payload))
            return payload
        return self.network.recv(self.rank, root, _TAG_BCAST).payload

    def gather(self, payload: Any, root: int = 0) -> Optional[list[Any]]:
        """Gather one payload per rank at ``root`` (rank order); others get None."""
        self._check_root(root)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for src in range(self.size):
                if src != root:
                    out[src] = self.network.recv(self.rank, src,
                                                 _TAG_GATHER).payload
            return out
        self.network.send(self.rank, root, payload, _TAG_GATHER,
                          payload_nbytes(payload))
        return None

    def allgather(self, payload: Any) -> list[Any]:
        """Gather to rank 0 then broadcast the list to everyone."""
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, payloads: Optional[Sequence[Any]],
                root: int = 0) -> Any:
        """Scatter one payload per rank from ``root``."""
        self._check_root(root)
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise CommError(
                    "scatter root must supply exactly one payload per rank")
            for dst in range(self.size):
                if dst != root:
                    self.network.send(root, dst, payloads[dst], _TAG_SCATTER,
                                      payload_nbytes(payloads[dst]))
            return payloads[root]
        return self.network.recv(self.rank, root, _TAG_SCATTER).payload

    def alltoallv(self, chunks: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all with per-destination payloads.

        ``chunks[j]`` goes to rank j; returns the list of payloads received,
        indexed by source rank.  Sizes may differ (the unbalanced case);
        :meth:`alltoall` enforces the balanced special case the paper's
        csort relies on.
        """
        if len(chunks) != self.size:
            raise CommError(
                f"alltoallv needs {self.size} chunks, got {len(chunks)}")
        # Pairwise-exchange schedule: in step t, rank p talks to peer
        # (t - p) mod P — an involution, so each step is a clean swap.
        # Each rank has at most one outstanding message per step (the
        # eager alternative has P-1), so modest bounded-mailbox
        # capacities absorb the round skew of pipelined callers; real
        # MPI_Alltoall implementations use the same idea.
        received: list[Any] = [None] * self.size
        received[self.rank] = chunks[self.rank]
        for step in range(self.size):
            peer = (step - self.rank) % self.size
            if peer == self.rank:
                continue
            self.network.send(self.rank, peer, chunks[peer],
                              _TAG_ALLTOALL, payload_nbytes(chunks[peer]))
            received[peer] = self.network.recv(self.rank, peer,
                                               _TAG_ALLTOALL).payload
        return received

    def alltoall(self, chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Balanced all-to-all: every chunk must have the same byte size."""
        sizes = {payload_nbytes(c) for c in chunks}
        if len(sizes) > 1:
            raise CommError(
                f"alltoall requires equal-sized chunks, got sizes {sorted(sizes)}")
        return self.alltoallv(chunks)

    def sendrecv_replace(self, payload: Any, peer: int) -> Any:
        """Exchange equal-role payloads with ``peer`` (MPI_Sendrecv_replace)."""
        if peer == self.rank:
            return payload
        self.network.send(self.rank, peer, payload, _TAG_SENDRECV,
                          payload_nbytes(payload))
        return self.network.recv(self.rank, peer, _TAG_SENDRECV).payload

    # -- helpers -----------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommError(f"root {root} out of range [0, {self.size})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm rank={self.rank} size={self.size}>"
