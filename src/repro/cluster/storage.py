"""Byte-addressed storage backends behind each simulated disk.

A :class:`Storage` is a flat namespace of named files supporting positional
reads and writes of ``numpy`` byte arrays.  A read lands in memory the
caller owns (:meth:`Storage.read_into`: an FG buffer, one copy per byte);
:meth:`Storage.read` wraps it for callers that want a fresh array.  Two
backends:

* :class:`MemoryStorage` — bytearray-backed; the default for simulations
  (data really moves, nothing touches the host filesystem);
* :class:`FileStorage` — one real file per name under a directory; used
  with the real-time kernel to demonstrate genuine out-of-core behaviour.

Storage carries **no timing**: all latency/bandwidth charging happens in
:class:`repro.cluster.disk.Disk`, which wraps a storage.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.errors import StorageError

__all__ = ["Storage", "MemoryStorage", "FileStorage"]


class Storage:
    """Abstract byte store: named files, positional numpy I/O."""

    def read(self, name: str, offset: int, nbytes: int) -> np.ndarray:
        """Return ``nbytes`` bytes of file ``name`` starting at ``offset``.

        Reading past the end of a file is an error (files have no holes
        unless written sparsely; see :meth:`truncate`).
        """
        self._check(offset, nbytes)
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_into(name, offset, out)
        return out

    def read_into(self, name: str, offset: int, out: np.ndarray) -> None:
        """Fill ``out`` with the ``out.nbytes`` bytes of file ``name`` at
        ``offset``: :meth:`read` without the fresh array, under the same
        checks and errors.

        ``out`` is any writable C-contiguous array (a record view of an
        FG buffer, say); its bytes are overwritten in place.
        """
        raise NotImplementedError

    def write(self, name: str, offset: int, data: np.ndarray) -> None:
        """Write ``data`` (any dtype; written as raw bytes) at ``offset``.

        Writing past the current end extends the file; a gap between the
        old end and ``offset`` is zero-filled.
        """
        raise NotImplementedError

    def size(self, name: str) -> int:
        """Current size of file ``name`` in bytes (0 if absent)."""
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove file ``name`` (no-op if absent)."""
        raise NotImplementedError

    def names(self) -> list[str]:
        """All file names present, sorted (deterministic iteration)."""
        raise NotImplementedError

    def truncate(self, name: str, nbytes: int) -> None:
        """Force file ``name`` to exactly ``nbytes`` (extend zero-filled)."""
        raise NotImplementedError

    # -- shared validation -------------------------------------------------

    @staticmethod
    def _check(offset: int, nbytes: int) -> None:
        if offset < 0:
            raise StorageError(f"negative offset: {offset}")
        if nbytes < 0:
            raise StorageError(f"negative length: {nbytes}")

    @staticmethod
    def _as_bytes(data: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(data)
        return arr.view(np.uint8).reshape(-1)

    @staticmethod
    def _out_bytes(out: np.ndarray) -> np.ndarray:
        """``out``'s own bytes as a flat uint8 view (never a copy, which
        would swallow the read)."""
        if not (out.flags.c_contiguous and out.flags.writeable):
            raise StorageError(
                "read_into needs a writable C-contiguous array")
        return out.reshape(-1).view(np.uint8)


class MemoryStorage(Storage):
    """In-memory backend: one ``bytearray`` per file."""

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}

    def read_into(self, name: str, offset: int, out: np.ndarray) -> None:
        raw = self._out_bytes(out)
        nbytes = len(raw)
        self._check(offset, nbytes)
        try:
            buf = self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None
        if offset + nbytes > len(buf):
            raise StorageError(
                f"read past end of {name!r}: offset {offset} + {nbytes} "
                f"> size {len(buf)}")
        # one copy, and the view is released on the spot: a bytearray
        # with a live export cannot be appended to or truncated
        with memoryview(buf) as view:
            raw[:] = view[offset:offset + nbytes]

    def write(self, name: str, offset: int, data: np.ndarray) -> None:
        raw = self._as_bytes(data)
        self._check(offset, len(raw))
        buf = self._files.setdefault(name, bytearray())
        if offset > len(buf):
            buf.extend(bytes(offset - len(buf)))
        # one copy, straight from the array's buffer (``buf[a:b] = raw``
        # builds a temporary bytearray first): overwrite, then append
        inside = min(len(raw), len(buf) - offset)
        if inside:
            with memoryview(buf) as view:
                view[offset:offset + inside] = raw[:inside]
        buf.extend(raw[inside:])

    def size(self, name: str) -> int:
        return len(self._files.get(name, b""))

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._files)

    def truncate(self, name: str, nbytes: int) -> None:
        self._check(0, nbytes)
        buf = self._files.get(name)
        if buf is None:
            self._files[name] = bytearray(nbytes)
        elif nbytes <= len(buf):
            del buf[nbytes:]
        else:
            buf.extend(bytes(nbytes - len(buf)))


class FileStorage(Storage):
    """Real-file backend: each name maps to a file under ``directory``.

    Names may not contain path separators (flat namespace by design; the
    PDM layer builds structured names like ``"run.3"`` itself).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str) -> str:
        if "/" in name or "\\" in name or name in (".", ".."):
            raise StorageError(f"illegal file name: {name!r}")
        return os.path.join(self.directory, name)

    def read_into(self, name: str, offset: int, out: np.ndarray) -> None:
        raw = self._out_bytes(out)
        nbytes = len(raw)
        self._check(offset, nbytes)
        path = self._path(name)
        if not os.path.exists(path):
            raise StorageError(f"no such file: {name!r}")
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            if offset + nbytes > size:
                raise StorageError(
                    f"read past end of {name!r}: offset {offset} + {nbytes} "
                    f"> size {size}")
            fh.seek(offset)
            got = fh.readinto(raw)
        if got != nbytes:
            raise StorageError(
                f"short read of {name!r}: {got} of {nbytes} bytes")

    def write(self, name: str, offset: int, data: np.ndarray) -> None:
        raw = self._as_bytes(data)
        self._check(offset, len(raw))
        path = self._path(name)
        mode = "r+b" if os.path.exists(path) else "w+b"
        with open(path, mode) as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            if offset > size:
                fh.write(b"\x00" * (offset - size))
            fh.seek(offset)
            fh.write(raw)

    def size(self, name: str) -> int:
        path = self._path(name)
        return os.path.getsize(path) if os.path.exists(path) else 0

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        path = self._path(name)
        if os.path.exists(path):
            os.remove(path)

    def names(self) -> list[str]:
        return sorted(os.listdir(self.directory))

    def truncate(self, name: str, nbytes: int) -> None:
        self._check(0, nbytes)
        path = self._path(name)
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        with open(path, "r+b") as fh:
            fh.truncate(nbytes)
