"""Unit tests for storage backends (memory and real files)."""

import tracemalloc

import numpy as np
import pytest

from repro.cluster.storage import FileStorage, MemoryStorage
from repro.errors import StorageError


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryStorage()
    return FileStorage(str(tmp_path / "disk0"))


def test_write_then_read_roundtrip(storage):
    data = np.arange(256, dtype=np.uint8)
    storage.write("f", 0, data)
    out = storage.read("f", 0, 256)
    np.testing.assert_array_equal(out, data)


def test_partial_read(storage):
    storage.write("f", 0, np.arange(100, dtype=np.uint8))
    out = storage.read("f", 10, 5)
    np.testing.assert_array_equal(out, [10, 11, 12, 13, 14])


def test_write_at_offset_extends_with_zero_fill(storage):
    storage.write("f", 0, np.array([1, 2], dtype=np.uint8))
    storage.write("f", 5, np.array([9], dtype=np.uint8))
    assert storage.size("f") == 6
    out = storage.read("f", 0, 6)
    np.testing.assert_array_equal(out, [1, 2, 0, 0, 0, 9])


def test_overwrite_in_place(storage):
    storage.write("f", 0, np.zeros(10, dtype=np.uint8))
    storage.write("f", 3, np.array([7, 7], dtype=np.uint8))
    out = storage.read("f", 0, 10)
    np.testing.assert_array_equal(out, [0, 0, 0, 7, 7, 0, 0, 0, 0, 0])
    assert storage.size("f") == 10


def test_non_uint8_dtype_written_as_raw_bytes(storage):
    values = np.array([1, 2, 3], dtype="<u8")
    storage.write("f", 0, values)
    assert storage.size("f") == 24
    out = storage.read("f", 0, 24)
    np.testing.assert_array_equal(out.view("<u8"), values)


def test_read_missing_file_raises(storage):
    with pytest.raises(StorageError):
        storage.read("ghost", 0, 1)


def test_read_past_end_raises(storage):
    storage.write("f", 0, np.zeros(4, dtype=np.uint8))
    with pytest.raises(StorageError):
        storage.read("f", 0, 5)


def test_negative_offset_rejected(storage):
    with pytest.raises(StorageError):
        storage.read("f", -1, 1)


def test_exists_delete_names(storage):
    assert not storage.exists("a")
    storage.write("a", 0, np.zeros(1, dtype=np.uint8))
    storage.write("b", 0, np.zeros(1, dtype=np.uint8))
    assert storage.exists("a")
    assert storage.names() == ["a", "b"]
    storage.delete("a")
    assert not storage.exists("a")
    assert storage.names() == ["b"]
    storage.delete("a")  # idempotent


def test_truncate_shrink_and_grow(storage):
    storage.write("f", 0, np.arange(10, dtype=np.uint8))
    storage.truncate("f", 4)
    assert storage.size("f") == 4
    storage.truncate("f", 8)
    assert storage.size("f") == 8
    out = storage.read("f", 0, 8)
    np.testing.assert_array_equal(out, [0, 1, 2, 3, 0, 0, 0, 0])


def test_file_storage_rejects_path_traversal(tmp_path):
    fs = FileStorage(str(tmp_path / "d"))
    with pytest.raises(StorageError):
        fs.write("../evil", 0, np.zeros(1, dtype=np.uint8))
    with pytest.raises(StorageError):
        fs.read("a/b", 0, 1)


def test_empty_read_of_existing_file(storage):
    storage.write("f", 0, np.zeros(3, dtype=np.uint8))
    out = storage.read("f", 1, 0)
    assert out.size == 0


# -- counts, not timings: how many bytes one MemoryStorage call allocates ----

COPY_TEST_BYTES = 8 << 20


def _peak_new_bytes(call) -> float:
    """Peak of bytes allocated during ``call``, over COPY_TEST_BYTES."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return ((tracemalloc.get_traced_memory()[1] - before)
                / COPY_TEST_BYTES)
    finally:
        tracemalloc.stop()


def test_memory_write_allocates_each_byte_once():
    """Append: the file's own growth and nothing else (3.0x before: a
    zero filler, ``tobytes()`` and the slice-assignment's temporary).
    In-place overwrite: nothing at all."""
    store = MemoryStorage()
    data = np.arange(COPY_TEST_BYTES // 8, dtype="<u8")
    assert _peak_new_bytes(lambda: store.write("f", 0, data)) <= 1.1
    assert _peak_new_bytes(lambda: store.write("f", 0, data[::-1])) <= 1.1
    # (the reversed view is the non-contiguous case: one contiguous copy)
    assert _peak_new_bytes(lambda: store.write("f", 0, data)) <= 0.01
    # straddling the end: overwrite the tail in place, append the rest
    # (no bound: tracemalloc books a growing realloc as old + new block)
    half = COPY_TEST_BYTES // 2
    store.write("f", half, data)
    assert store.size("f") == half + COPY_TEST_BYTES
    np.testing.assert_array_equal(
        store.read("f", 0, half).view("<u8"), data[:half // 8])
    np.testing.assert_array_equal(
        store.read("f", half, COPY_TEST_BYTES).view("<u8"), data)


def test_memory_fresh_truncate_allocates_each_byte_once():
    """2.0x before: a zero filler, then the file extended by it."""
    store = MemoryStorage()
    assert _peak_new_bytes(
        lambda: store.truncate("f", COPY_TEST_BYTES)) <= 1.1
    assert store.size("f") == COPY_TEST_BYTES
    assert not store.read("f", 0, COPY_TEST_BYTES).any()


def test_write_of_a_non_contiguous_array_stores_its_bytes(storage):
    records = np.zeros(64, dtype=[("key", "<u8"), ("serial", "<u8")])
    records["key"] = np.arange(64)[::-1]
    records["serial"] = np.arange(64)
    for view in (records[::3], records[::-1], records["key"],
                 records.reshape(8, 8).T):
        assert not view.flags.c_contiguous
        storage.write("f", 16, view)
        expected = np.ascontiguousarray(view).tobytes()
        assert storage.size("f") >= 16 + len(expected)
        assert storage.read("f", 16, len(expected)).tobytes() == expected
        assert not storage.read("f", 0, 16).any()
