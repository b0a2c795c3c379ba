"""FG buffers: the fixed-size blocks that travel through pipelines.

A buffer corresponds to one block of data transfer (disk block, message
block), so a pipeline's buffer size typically equals its I/O block size
(paper, Section II).  Buffers are allocated once per pipeline into a fixed
pool and recycled from sink to source; they are **tied to their pipeline**
and may never be conveyed along another one ("buffers cannot jump from one
pipeline to another", Section IV).

The **caboose** is a special marker buffer that signals end-of-stream: it
is conveyed after the last data buffer, travels the pipeline in order, and
tells each stage (and finally the sink) that the pipeline is complete.

When the owning program runs with FGSan enabled
(:mod:`repro.check.sanitizer`), every access to :attr:`Buffer.data`,
:meth:`Buffer.view`, :meth:`Buffer.put` and :meth:`Buffer.fill` is
ownership-checked, so a stage touching a buffer it already conveyed fails
at the exact offending line instead of corrupting a block downstream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.errors import StageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.check.sanitizer import Sanitizer
    from repro.core.pipeline import Pipeline

__all__ = ["Buffer"]


class Buffer:
    """One block-sized buffer tied to a pipeline.

    Attributes:
        data: the backing byte array (``capacity`` bytes, dtype uint8);
            ``None`` for cabooses and for a released buffer.
        size: number of valid bytes currently in the buffer; stages set it
            when they fill the buffer.
        round: emission index assigned by the source (0, 1, 2, ...);
            ``-1`` while pooled (``clear()`` resets it).
        tags: free-form per-buffer metadata for stage-to-stage signalling
            (e.g. which column of the matrix this block holds).
        aux: optional auxiliary scratch array of equal capacity — the
            "auxiliary buffer" feature the paper's permute stage uses so
            permutations need not be in place.  Allocated when a stage
            first touches it; ``None`` without ``with_aux``.

    A pool buffer lives as long as its program: :meth:`release`, called
    for every pool buffer when ``FGProgram.wait()`` returns or raises,
    drops ``data`` and ``aux``, so the pool's bytes go back at once
    rather than when the collector next finds the program's cycles.
    """

    __slots__ = ("pipeline", "index", "_data", "_aux", "_with_aux", "size",
                 "round", "tags", "is_caboose", "_san")

    def __init__(self, pipeline: "Pipeline", index: int, capacity: int,
                 with_aux: bool = False) -> None:
        self.pipeline = pipeline
        self.index = index
        self._data: Optional[np.ndarray] = np.zeros(capacity, dtype=np.uint8)
        self._aux: Optional[np.ndarray] = None
        self._with_aux = with_aux
        self.size = 0
        self.round = -1
        self.tags: dict[str, Any] = {}
        self.is_caboose = False
        #: the program's FGSan tracker when sanitizing, else None
        self._san: Optional["Sanitizer"] = None

    @classmethod
    def caboose(cls, pipeline: "Pipeline",
                san: Optional["Sanitizer"] = None) -> "Buffer":
        """Create the end-of-stream marker for ``pipeline``.

        ``san`` attaches the program's FGSan tracker so a stage writing
        to the marker is reported as a ``caboose_write`` violation."""
        buf = cls.__new__(cls)
        buf.pipeline = pipeline
        buf.index = -1
        buf._data = None
        buf._aux = None
        buf._with_aux = False
        buf.size = 0
        buf.round = -1
        buf.tags = {}
        buf.is_caboose = True
        buf._san = san
        return buf

    # -- typed access helpers -------------------------------------------------

    @property
    def data(self) -> Optional[np.ndarray]:
        """The backing byte array (ownership-checked under FGSan)."""
        if self._san is not None:
            self._san.on_access(self, "data")
        return self._data

    @property
    def aux(self) -> Optional[np.ndarray]:
        """The auxiliary scratch array, zero-filled on first use."""
        if self._aux is None and self._with_aux and self._data is not None:
            self._aux = np.zeros(len(self._data), dtype=np.uint8)
        return self._aux

    @property
    def capacity(self) -> int:
        """Backing capacity in bytes (0 for cabooses and once released)."""
        return 0 if self._data is None else len(self._data)

    @property
    def fill_fraction(self) -> float:
        """Valid bytes over capacity (0.0 for cabooses).

        Observability hook: since a buffer corresponds to one block of
        data transfer, persistently under-filled buffers mean wasted I/O
        and wire capacity; the program observer records the distribution
        of fill fractions at each convey.
        """
        capacity = self.capacity
        return self.size / capacity if capacity else 0.0

    def view(self, dtype: Any) -> np.ndarray:
        """View the *valid* bytes (``size``) as an array of ``dtype``.

        The valid byte count must be a multiple of the dtype's item size.
        The view aliases the buffer — mutations write through.
        """
        if self._san is not None:
            self._san.on_access(self, "view")
        self._check_data("view")
        assert self._data is not None
        itemsize = np.dtype(dtype).itemsize
        if self.size % itemsize != 0:
            raise StageError(
                f"buffer size {self.size} is not a multiple of "
                f"{np.dtype(dtype)} itemsize {itemsize}")
        return self._data[:self.size].view(dtype)

    def put(self, array: np.ndarray) -> None:
        """Copy ``array``'s raw bytes into the buffer and set ``size``."""
        if self._san is not None:
            self._san.on_access(self, "put")
        self._check_data("put")
        assert self._data is not None
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if len(raw) > self.capacity:
            raise StageError(
                f"array of {len(raw)} bytes exceeds buffer capacity "
                f"{self.capacity}")
        self._data[:len(raw)] = raw
        self.size = len(raw)

    def fill(self, dtype: Any, count: int) -> np.ndarray:
        """Set ``size`` to ``count`` items of ``dtype`` and return a
        writable view of them, for the caller to fill in place.

        :meth:`put` without the source array: a disk read lands here
        (``rf.read_into(start, buf.fill(schema.dtype, n))``), one copy
        per byte.  The view aliases the buffer, as :meth:`view`'s does.
        """
        if self._san is not None:
            self._san.on_access(self, "fill")
        self._check_data("fill")
        assert self._data is not None
        nbytes = count * np.dtype(dtype).itemsize
        if not 0 <= nbytes <= self.capacity:
            raise StageError(
                f"{count} items of {np.dtype(dtype)} ({nbytes} bytes) do "
                f"not fit buffer capacity {self.capacity}")
        self.size = nbytes
        return self._data[:nbytes].view(dtype)

    def clear(self) -> None:
        """Reset valid size, round, and metadata (bytes are left as-is).

        ``round`` returns to ``-1`` so a recycled buffer cannot carry a
        misleading round from its previous trip; the source restamps it
        on the next emission.
        """
        self.size = 0
        self.round = -1
        self.tags.clear()

    def release(self) -> None:
        """Drop the backing arrays: the owning program has finished."""
        self._data = None
        self._aux = None

    def _check_data(self, op: str) -> None:
        if self._data is None:
            if self.is_caboose:
                raise StageError(f"cannot {op} on a caboose buffer")
            raise StageError(
                f"cannot {op} on released buffer {self.pipeline.name}"
                f"#{self.index}: its program finished (pools are given "
                "back at wait())")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_caboose:
            return f"<Caboose of {self.pipeline.name}>"
        return (f"<Buffer {self.pipeline.name}#{self.index} "
                f"round={self.round} size={self.size}/{self.capacity}>")
