"""Record schemas: fixed-size records with a uint64 sort key.

The paper evaluates two record sizes — 16 bytes (4 gigarecords in 64 GB)
and 64 bytes (1 gigarecord) — each carrying an 8-byte sort key plus
payload.  Records are numpy structured arrays with fields ``key`` and
(optionally) ``payload``, so whole blocks sort/permute vectorized.
Records that are only moved, not read, are copied through
:attr:`RecordSchema.item`, a record as one opaque item: numpy copies a
structured array field by field, several times slower per byte.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError

__all__ = ["RecordSchema"]

#: :meth:`RecordSchema.sort` probes every 64th key: fewer than 8 descents
#: mean a small block or a handful of ascending runs, which the adaptive
#: stable sort wins (EXPERIMENTS.md "Host time: the data plane")
_PROBE_STRIDE = 64
_ADAPTIVE_DESCENTS = 8

#: :meth:`RecordSchema.from_keys` stamps each payload with key ^ mask
_STAMP_MASK = np.uint64(0x9E3779B97F4A7C15)


class RecordSchema:
    """Describes one record format (total size, 8-byte ``<u8`` key)."""

    KEY_BYTES = 8

    def __init__(self, record_bytes: int):
        if record_bytes < self.KEY_BYTES:
            raise SortError(
                f"record_bytes must be >= {self.KEY_BYTES} (the key), "
                f"got {record_bytes}")
        self.record_bytes = record_bytes
        payload = record_bytes - self.KEY_BYTES
        if payload:
            self.dtype = np.dtype([("key", "<u8"),
                                   ("payload", f"V{payload}")])
        else:
            self.dtype = np.dtype([("key", "<u8")])
        assert self.dtype.itemsize == record_bytes
        #: a record as one opaque ``record_bytes``-byte item: every copy
        #: on the data plane runs through ``records.view(schema.item)``
        #: and back through ``.view(schema.dtype)`` (both free)
        self.item = np.dtype((np.void, record_bytes))
        #: stamp bytes :meth:`from_keys` writes (the payload's first 8,
        #: or the whole payload when it is shorter)
        self._stamp_width = min(self.KEY_BYTES, payload)
        #: the payload's first 8 bytes as one ``<u8`` field, when it has
        #: 8: the key stamp is then one vectorised XOR or copy instead of
        #: a loop over byte columns
        self._stamp_dtype = (np.dtype({
            "names": ["stamp"], "formats": ["<u8"],
            "offsets": [self.KEY_BYTES], "itemsize": record_bytes})
            if payload >= self.KEY_BYTES else None)

    # -- common formats -----------------------------------------------------

    @classmethod
    def paper_16(cls) -> "RecordSchema":
        """16-byte records (Figure 8a)."""
        return cls(16)

    @classmethod
    def paper_64(cls) -> "RecordSchema":
        """64-byte records (Figure 8b)."""
        return cls(64)

    # -- construction / conversion ---------------------------------------------

    def empty(self, n: int) -> np.ndarray:
        """n zeroed records."""
        return np.zeros(n, dtype=self.dtype)

    def from_keys(self, keys: np.ndarray) -> np.ndarray:
        """Records with the given keys and a payload derived from the key
        (so payload integrity is checkable after sorting)."""
        keys = np.asarray(keys, dtype="<u8")
        recs = self.empty(len(keys))
        recs["key"] = keys
        if "payload" not in self.dtype.names:
            return recs
        # stamp the first bytes of the payload with a key-derived tag
        if self._stamp_dtype is not None:
            np.bitwise_xor(keys, _STAMP_MASK,
                           out=recs.view(self._stamp_dtype)["stamp"])
        else:
            stamp = (keys ^ _STAMP_MASK).view("<u8")
            width = self._stamp_width
            raw = recs.view(np.uint8).reshape(len(keys), self.record_bytes)
            raw[:, self.KEY_BYTES:self.KEY_BYTES + width] = (
                stamp.view(np.uint8).reshape(len(keys), 8)[:, :width])
        return recs

    def payload_stamps(self, keys: np.ndarray) -> np.ndarray:
        """The tags :meth:`payload_tags` reads back from records that
        :meth:`from_keys` built with these keys: ``key ^ mask``, cut to
        the low bytes it has room for when the payload is under 8."""
        stamps = np.asarray(keys, dtype="<u8") ^ _STAMP_MASK
        if self._stamp_width < self.KEY_BYTES:
            stamps &= np.uint64((1 << 8 * self._stamp_width) - 1)
        return stamps

    def payload_tags(self, records: np.ndarray) -> np.ndarray:
        """Recover the key-derived payload stamp written by from_keys."""
        if "payload" not in self.dtype.names:
            raise SortError("schema has no payload")
        if self._stamp_dtype is not None:
            return np.ascontiguousarray(records).view(
                self._stamp_dtype)["stamp"].copy()
        width = self._stamp_width
        raw = np.ascontiguousarray(records).view(np.uint8)
        raw = raw.reshape(len(records), self.record_bytes)
        out = np.zeros(len(records), dtype="<u8")
        out_bytes = out.view(np.uint8).reshape(len(records), 8)
        out_bytes[:, :width] = raw[:, self.KEY_BYTES:self.KEY_BYTES + width]
        return out

    def to_bytes(self, records: np.ndarray) -> np.ndarray:
        """Raw uint8 view of a record array (zero-copy where possible)."""
        return np.ascontiguousarray(records).view(np.uint8).reshape(-1)

    def from_bytes(self, raw: np.ndarray) -> np.ndarray:
        """Interpret a uint8 array as records."""
        raw = np.ascontiguousarray(raw)
        if raw.nbytes % self.record_bytes != 0:
            raise SortError(
                f"{raw.nbytes} bytes is not a whole number of "
                f"{self.record_bytes}-byte records")
        return raw.view(self.dtype)

    def nbytes(self, nrecords: int) -> int:
        return nrecords * self.record_bytes

    def nrecords(self, nbytes: int) -> int:
        if nbytes % self.record_bytes != 0:
            raise SortError(
                f"{nbytes} bytes is not a whole number of "
                f"{self.record_bytes}-byte records")
        return nbytes // self.record_bytes

    # -- sorting helpers ------------------------------------------------------------

    def sort(self, records: np.ndarray) -> np.ndarray:
        """Stable sort by key (returns a new array).

        Byte-identical to ``records[np.argsort(keys, kind="stable")]`` on
        every input and numpy build.  Small blocks and a few ascending
        runs go to that adaptive sort (it merges runs in linear time).
        The rest are ranked by one SIMD-dispatched *value* sort of
        ``(key - min) << b | position``, ``b`` the bits a position
        needs: the order is ``(key, position)``, stable by construction.
        Keys spanning more than ``64 - b`` bits lose their low bits
        first; if two keys that share the kept bits then come out
        descending, the block goes to the stable sort instead.
        """
        keys = records["key"]
        probe = keys[::_PROBE_STRIDE]
        if (len(probe) <= _ADAPTIVE_DESCENTS or np.count_nonzero(
                probe[1:] < probe[:-1]) < _ADAPTIVE_DESCENTS):
            return records[np.argsort(keys, kind="stable")]
        n = len(keys)
        b = (n - 1).bit_length()
        packed = np.array(keys)             # a fresh contiguous copy
        low = packed.min()
        drop = max(0, int(packed.max() - low).bit_length() - (64 - b))
        packed -= low
        packed >>= drop
        packed <<= b
        packed |= np.arange(n, dtype=packed.dtype)
        packed.sort()
        packed &= (1 << b) - 1
        order = packed.view(np.int64)
        if drop:
            ranked = keys[order]
            if np.any(ranked[1:] < ranked[:-1]):
                order = np.argsort(keys, kind="stable")
        return records[order]

    def is_sorted(self, records: np.ndarray) -> bool:
        keys = records["key"]
        return bool(np.all(keys[:-1] <= keys[1:])) if len(keys) > 1 else True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RecordSchema {self.record_bytes}B>"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RecordSchema)
                and other.record_bytes == self.record_bytes)

    def __hash__(self) -> int:
        return hash(("RecordSchema", self.record_bytes))
