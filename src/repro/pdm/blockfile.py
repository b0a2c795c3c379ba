"""Record-oriented files on one disk.

:class:`RecordFile` keeps the byte arithmetic of record I/O in one place:
positions and lengths are expressed in records, the disk is charged in
bytes.  Reads and writes go through the (timed) disk device; the untimed
``peek``/``poke`` variants bypass timing for test setup and verification.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.disk import Disk
from repro.pdm.records import RecordSchema

__all__ = ["RecordFile"]


class RecordFile:
    """A named file of fixed-size records on one node's disk."""

    def __init__(self, disk: Disk, name: str, schema: RecordSchema):
        self.disk = disk
        self.name = name
        self.schema = schema

    # -- timed I/O (inside kernel processes) ---------------------------------

    def read(self, start_record: int, nrecords: int) -> np.ndarray:
        """Read ``nrecords`` records starting at record index ``start_record``."""
        raw = self.disk.read(self.name,
                             start_record * self.schema.record_bytes,
                             nrecords * self.schema.record_bytes)
        return self.schema.from_bytes(raw)

    def read_into(self, start_record: int, out: np.ndarray) -> None:
        """Read ``len(out)`` records starting at record index
        ``start_record`` into ``out`` (a record view, e.g. from
        :meth:`Buffer.fill <repro.core.buffer.Buffer.fill>`)."""
        self.disk.read_into(self.name,
                            start_record * self.schema.record_bytes, out)

    def write(self, start_record: int, records: np.ndarray) -> None:
        """Write ``records`` at record index ``start_record``."""
        self.disk.write(self.name,
                        start_record * self.schema.record_bytes,
                        self.schema.to_bytes(records))

    def append(self, records: np.ndarray) -> int:
        """Write ``records`` at the end; returns their starting record index."""
        start = self.n_records
        self.write(start, records)
        return start

    # -- untimed helpers (setup / verification only) ------------------------------

    def peek(self, start_record: int, nrecords: int) -> np.ndarray:
        """Untimed read, bypassing the disk arm (for tests/verification)."""
        raw = self.disk.storage.read(
            self.name, start_record * self.schema.record_bytes,
            nrecords * self.schema.record_bytes)
        return self.schema.from_bytes(raw)

    def poke(self, start_record: int, records: np.ndarray) -> None:
        """Untimed write, bypassing the disk arm (for dataset setup)."""
        self.disk.storage.write(
            self.name, start_record * self.schema.record_bytes,
            self.schema.to_bytes(records))

    def read_all(self) -> np.ndarray:
        """Untimed read of the whole file (empty if the file is absent —
        a node with an empty partition never creates its output file)."""
        if not self.exists:
            return self.schema.empty(0)
        return self.peek(0, self.n_records)

    @property
    def n_records(self) -> int:
        """Current length in records."""
        return self.schema.nrecords(self.disk.size(self.name))

    @property
    def exists(self) -> bool:
        return self.disk.exists(self.name)

    def delete(self) -> None:
        self.disk.delete(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RecordFile {self.name!r}: {self.n_records} records>"
