"""Output verification: the checks every sorting experiment must pass.

A sorting program is correct when its striped output (a) contains exactly
the input multiset of keys, in sorted order, (b) kept every record intact
(payload still matches its key), and (c) is laid out in PDM striping.
:func:`verify_striped_output` checks all three against the dataset
manifest and raises :class:`~repro.errors.VerificationError` with a
precise diagnosis on any mismatch.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import VerificationError
from repro.pdm.records import RecordSchema
from repro.pdm.striped import StripedFile
from repro.workloads.generator import DatasetManifest

__all__ = ["verify_striped_output", "verify_partitioned_output",
           "verify_records_sorted"]


def verify_records_sorted(records: np.ndarray, what: str = "output",
                          start: int = 0,
                          before: "np.uint64 | None" = None) -> None:
    """Raise unless ``records`` is non-decreasing by key.

    For a file checked piece by piece, ``start`` is the position of
    ``records[0]`` in the whole (positions in the message are global)
    and ``before`` the key just ahead of it, so the pair that straddles
    two pieces is checked too.
    """
    keys = records["key"]
    if before is not None and len(keys) and before > keys[0]:
        raise VerificationError(
            f"{what} not sorted: key[{start - 1}]={before} > "
            f"key[{start}]={keys[0]}")
    if len(keys) > 1:
        bad = np.nonzero(keys[:-1] > keys[1:])[0]
        if len(bad):
            i = int(bad[0])
            raise VerificationError(
                f"{what} not sorted: key[{start + i}]={keys[i]} > "
                f"key[{start + i + 1}]={keys[i + 1]}")


def _first_lost_payload(schema: RecordSchema, records: np.ndarray,
                        start: int) -> "int | None":
    """Global position of the first record whose payload stamp is not
    its key's, ``records[0]`` being at ``start`` (None if every stamp
    matches, or the schema has no payload)."""
    if "payload" not in schema.dtype.names:
        return None
    lost = np.nonzero(schema.payload_tags(records)
                      != schema.payload_stamps(records["key"]))[0]
    return start + int(lost[0]) if len(lost) else None


def _lost_payload_error(position: int) -> VerificationError:
    return VerificationError(
        f"record at global position {position} lost its payload "
        "(key and payload stamp disagree)")


def verify_partitioned_output(cluster: Cluster, manifest: DatasetManifest,
                              output_name: str) -> None:
    """Check a *non-striped* sorted output (NOW-Sort style): node i's
    local file is sorted, keys on node i precede keys on node i+1, and
    the concatenation is the sorted input multiset, every payload intact.

    One node's file is held at a time, compared with its slice of
    ``manifest.sorted_keys``; diagnoses keep their order of precedence
    (any unsorted file, then partition order, then count, then multiset,
    then the first lost payload).
    """
    from repro.pdm.blockfile import RecordFile

    schema = manifest.schema
    disorder = None
    is_multiset = True
    lost = None
    seen = 0
    last = None  # the previous node's last key; None if it holds nothing
    for rank, node in enumerate(cluster.nodes):
        local = RecordFile(node.disk, output_name, schema).read_all()
        verify_records_sorted(local, what=f"node {rank} output")
        keys = local["key"]
        if (disorder is None and last is not None and len(keys)
                and last > keys[0]):
            disorder = (f"partition order violated between nodes "
                        f"{rank - 1} and {rank}: {last} > {keys[0]}")
        is_multiset = is_multiset and np.array_equal(
            keys, manifest.sorted_keys[seen:seen + len(keys)])
        if lost is None:
            lost = _first_lost_payload(schema, local, seen)
        seen += len(keys)
        last = keys[-1] if len(keys) else None
    if disorder is not None:
        raise VerificationError(disorder)
    if seen != manifest.total_records:
        raise VerificationError(
            f"output has {seen} records, expected "
            f"{manifest.total_records}")
    if not is_multiset:
        raise VerificationError(
            "concatenated local outputs are not the sorted input multiset")
    if lost is not None:
        raise _lost_payload_error(lost)


def verify_striped_output(cluster: Cluster, manifest: DatasetManifest,
                          output_name: str, block_records: int,
                          owners: "list[int] | None" = None) -> None:
    """Check a striped output file against the dataset manifest.

    ``owners`` names the ranks the file is striped over (stripe order);
    defaults to all ranks.  After partition re-assignment the recovery
    manager passes the survivor layout here.

    The file is walked in :meth:`StripedFile.iter_chunks` pieces, never
    held whole.  Diagnoses keep their order of precedence — layout,
    count, the first unsorted pair anywhere, then the first key that is
    not the manifest's, then the first lost payload — so the later two
    are noted when met and raised once the walk found no unsorted pair.
    """
    schema = manifest.schema
    striped = StripedFile(cluster, output_name, schema, block_records,
                          owners=owners)

    # striping first: every owner must hold exactly its round-robin share
    # (checked before reading content, so a misplaced layout is diagnosed
    # as such rather than as a read error)
    total_blocks = -(-manifest.total_records // block_records)
    for rank in sorted(set(striped.owners)):
        local = striped.locals[rank]
        owned = [b for b in range(total_blocks)
                 if striped.node_of_block(b) == rank]
        expected_records = sum(
            min(block_records, manifest.total_records - b * block_records)
            for b in owned)
        if local.n_records != expected_records:
            raise VerificationError(
                f"node {rank} holds {local.n_records} output records, "
                f"expected {expected_records} under PDM striping")

    total = striped.total_records()
    if total != manifest.total_records:
        raise VerificationError(
            f"output has {total} records, expected "
            f"{manifest.total_records}")

    mismatch = lost = before = None
    start = 0
    for chunk in striped.iter_chunks():
        keys = chunk["key"]
        verify_records_sorted(chunk, start=start, before=before)
        expected = manifest.sorted_keys[start:start + len(chunk)]
        if mismatch is None and not np.array_equal(keys, expected):
            i = int(np.nonzero(keys != expected)[0][0])
            mismatch = (
                f"output keys are not the sorted input multiset: first "
                f"mismatch at global position {start + i}: got "
                f"{keys[i]}, expected {expected[i]}")
        if lost is None:
            lost = _first_lost_payload(schema, chunk, start)
        before = keys[-1]
        start += len(chunk)
    if mismatch is not None:
        raise VerificationError(mismatch)
    if lost is not None:
        raise _lost_payload_error(lost)
