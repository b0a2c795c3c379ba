"""Dataset setup: write per-node input files, untimed.

The paper's experiments start with the data "distributed evenly among the
16 nodes" in node-local input files.  :func:`generate_input` reproduces
that starting state: each node gets ``n_per_node`` records in a file named
``input`` on its disk.  Generation bypasses the timed disk path (the
dataset exists before the experiment's clock starts).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.workloads.distributions import generate_keys

__all__ = ["DatasetManifest", "generate_input", "INPUT_FILE"]

#: canonical name of the per-node input file
INPUT_FILE = "input"


@dataclasses.dataclass(frozen=True)
class DatasetManifest:
    """What was generated, plus the ground truth for verification."""

    distribution: str
    schema: RecordSchema
    n_per_node: int
    n_nodes: int
    seed: int
    #: all keys in globally sorted order (the expected output key column)
    sorted_keys: np.ndarray

    @property
    def total_records(self) -> int:
        return self.n_per_node * self.n_nodes

    @property
    def total_bytes(self) -> int:
        return self.total_records * self.schema.record_bytes


def generate_input(cluster: Cluster, schema: RecordSchema, n_per_node: int,
                   distribution: str, seed: int = 0) -> DatasetManifest:
    """Write ``n_per_node`` records to every node's ``input`` file.

    Returns a manifest carrying the globally sorted key sequence so tests
    and benchmarks can verify outputs without re-reading the inputs.
    """
    if n_per_node < 1:
        raise SortError(f"n_per_node must be >= 1, got {n_per_node}")
    rng = np.random.default_rng(seed)
    # each node's draw lands in its slice of the one array that, sorted
    # in place, is the manifest's ground truth
    sorted_keys = np.empty(n_per_node * cluster.n_nodes, dtype=np.uint64)
    for rank, node in enumerate(cluster.nodes):
        keys = sorted_keys[rank * n_per_node:(rank + 1) * n_per_node]
        keys[:] = generate_keys(distribution, n_per_node, rng)
        rf = RecordFile(node.disk, INPUT_FILE, schema)
        rf.delete()
        rf.poke(0, schema.from_keys(keys))
    sorted_keys.sort()  # bare keys: no ties to order
    return DatasetManifest(distribution=distribution, schema=schema,
                           n_per_node=n_per_node, n_nodes=cluster.n_nodes,
                           seed=seed, sorted_keys=sorted_keys)
