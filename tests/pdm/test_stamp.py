"""The key stamp against its per-byte formulation.

``RecordSchema.from_keys`` stamps each payload with ``key ^ mask``, and
``payload_tags`` reads the stamp back.  A payload of 8 bytes or more
takes it as one ``<u8`` field; a narrower one keeps the byte-column path.
Both must equal, byte for byte, the formulation that wrote and read every
stamp one byte column at a time — kept here as the oracle.
"""

import numpy as np
import pytest

from repro.errors import SortError
from repro.pdm.records import RecordSchema

MASK = np.uint64(0x9E3779B97F4A7C15)


def oracle_from_keys(schema, keys):
    keys = np.asarray(keys, dtype="<u8")
    recs = schema.empty(len(keys))
    recs["key"] = keys
    if "payload" in schema.dtype.names:
        stamp = (keys ^ MASK).view("<u8")
        width = min(8, schema.dtype["payload"].itemsize)
        raw = recs.view(np.uint8).reshape(len(keys), schema.record_bytes)
        raw[:, 8:8 + width] = (
            stamp.view(np.uint8).reshape(len(keys), 8)[:, :width])
    return recs


def oracle_payload_tags(schema, records):
    width = min(8, schema.dtype["payload"].itemsize)
    raw = np.ascontiguousarray(records).view(np.uint8)
    raw = raw.reshape(len(records), schema.record_bytes)
    out = np.zeros(len(records), dtype="<u8")
    out.view(np.uint8).reshape(len(records), 8)[:, :width] = (
        raw[:, 8:8 + width])
    return out


def _keys(width):
    rng = np.random.default_rng(width)
    edge = np.array([0, 1, 2**63, 2**64 - 1, int(MASK)], dtype="<u8")
    return np.concatenate([edge, rng.integers(0, 2**64, 200,
                                              dtype=np.uint64)])


@pytest.mark.parametrize("width", range(8, 81))
def test_from_keys_is_the_per_byte_stamp(width):
    schema = RecordSchema(width)
    keys = _keys(width)
    got = schema.from_keys(keys)
    assert got.dtype == schema.dtype
    assert got.tobytes() == oracle_from_keys(schema, keys).tobytes()
    assert schema.from_keys(keys[:0]).tobytes() == b""


@pytest.mark.parametrize("width", range(9, 81))
def test_payload_tags_is_the_per_byte_read(width):
    schema = RecordSchema(width)
    records = oracle_from_keys(schema, _keys(width))
    # contiguous, strided, reversed, and a field-sliced copy's view
    for view in (records, records[::3], records[::-1], records[5:17:2]):
        got = schema.payload_tags(view)
        want = oracle_payload_tags(schema, view)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    # a tag is independent of the records it came from
    tags = schema.payload_tags(records)
    records["key"] = 0
    assert tags.tobytes() == oracle_payload_tags(
        schema, oracle_from_keys(schema, _keys(width))).tobytes()


def test_narrow_payloads_keep_the_byte_path_and_no_payload_refuses():
    for width in range(9, 16):
        assert RecordSchema(width)._stamp_dtype is None
    assert RecordSchema(16)._stamp_dtype is not None
    with pytest.raises(SortError, match="no payload"):
        RecordSchema(8).payload_tags(RecordSchema(8).empty(2))


@pytest.mark.parametrize("width", range(9, 81))
def test_payload_stamps_are_what_payload_tags_reads_back(width):
    """The verifier's expectation: ``key ^ mask`` cut to the stamp bytes
    the payload holds (its low 1-7 bytes under 15-byte records)."""
    schema = RecordSchema(width)
    keys = _keys(width)
    stamps = schema.payload_stamps(keys)
    assert stamps.tobytes() == oracle_payload_tags(
        schema, oracle_from_keys(schema, keys)).tobytes()
    if width >= 16:
        assert stamps.tobytes() == (keys ^ MASK).tobytes()
