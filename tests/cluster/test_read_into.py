"""The read path that lands in the caller's memory, against the one that
returns a fresh array.

``read_into`` must be ``read`` in every way but where the bytes land:
the same bytes, the same errors for the same bad requests, on both
storage backends; on a :class:`Disk`, the same timed operation — trace,
retries, fault rulings and accounting — under faults and a straggler;
and a ``MemoryStorage`` file must stay appendable and truncatable after
it (no buffer export may outlive the call).  ``Buffer.fill``, which
hands out the memory such a read fills, is checked as ``put`` is.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import Disk
from repro.cluster.hardware import HardwareModel
from repro.cluster.storage import FileStorage, MemoryStorage
from repro.core import FGProgram, Stage
from repro.core.buffer import Buffer
from repro.core.pipeline import Pipeline
from repro.errors import (
    FaultInjected,
    PipelineFailed,
    ProcessFailed,
    SanitizerError,
    StageError,
    StorageError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.sim import Tracer, VirtualTimeKernel

PROFILE = settings(derandomize=True, max_examples=60, deadline=None)
RECORD = np.dtype([("key", "<u8"), ("payload", "V8")])


def _outcome(fn):
    """``("ok", bytes)`` or ``("error", type, message)``."""
    try:
        return ("ok", bytes(fn()))
    except StorageError as exc:
        return ("error", type(exc), str(exc))


def _read_into(store, name, offset, nbytes, dtype):
    out = np.empty(nbytes // np.dtype(dtype).itemsize, dtype=dtype)
    store.read_into(name, offset, out)
    return out.view(np.uint8)


# -- storage: read_into is read --------------------------------------------


@PROFILE
@given(content=st.binary(max_size=64),
       offset=st.integers(-3, 70), nbytes=st.integers(0, 70),
       name=st.sampled_from(["f", "absent"]),
       records=st.booleans())
def test_read_into_is_read_on_both_backends(content, offset, nbytes, name,
                                            records):
    dtype = RECORD if records else np.uint8
    nbytes -= nbytes % np.dtype(dtype).itemsize
    with tempfile.TemporaryDirectory() as tmp:
        for store in (MemoryStorage(), FileStorage(tmp)):
            store.write("f", 0, np.frombuffer(content, dtype=np.uint8))
            fresh = _outcome(lambda: store.read(name, offset, nbytes))
            landed = _outcome(
                lambda: _read_into(store, name, offset, nbytes, dtype))
            assert landed == fresh
            if offset >= 0 and name == "f" \
                    and offset + nbytes <= len(content):
                assert fresh == ("ok", content[offset:offset + nbytes])


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_read_into_reaching_exactly_the_end_and_of_nothing(backend,
                                                           tmp_path):
    store = MemoryStorage() if backend == "memory" else FileStorage(
        str(tmp_path))
    store.write("f", 0, np.arange(32, dtype=np.uint8))
    out = np.zeros(2, dtype=RECORD)
    store.read_into("f", 0, out)
    assert bytes(out.view(np.uint8)) == bytes(range(32))
    tail = np.zeros(5, dtype=np.uint8)
    store.read_into("f", 27, tail)
    assert list(tail) == [27, 28, 29, 30, 31]
    store.read_into("f", 32, np.zeros(0, dtype=np.uint8))  # at the end
    with pytest.raises(StorageError, match="read past end"):
        store.read_into("f", 32, np.zeros(1, dtype=np.uint8))


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_read_into_refuses_memory_it_could_only_copy(backend, tmp_path):
    store = MemoryStorage() if backend == "memory" else FileStorage(
        str(tmp_path))
    store.write("f", 0, np.arange(32, dtype=np.uint8))
    strided = np.zeros(32, dtype=np.uint8)[::2]
    frozen = np.zeros(16, dtype=np.uint8)
    frozen.flags.writeable = False
    for out in (strided, frozen):
        with pytest.raises(StorageError, match="writable C-contiguous"):
            store.read_into("f", 0, out)
    assert not strided.any() and not frozen.any()


def test_memory_file_still_grows_and_shrinks_after_read_into():
    """A ``bytearray`` with a live buffer export refuses to resize, so a
    leaked view would break the next append or truncate."""
    store = MemoryStorage()
    store.write("f", 0, np.arange(16, dtype=np.uint8))
    out = np.empty(8, dtype=np.uint8)
    store.read_into("f", 4, out)
    with pytest.raises(StorageError):
        store.read_into("f", 12, out)  # past the end: must not leak either
    store.write("f", 16, np.arange(16, 32, dtype=np.uint8))   # append
    store.truncate("f", 20)
    store.truncate("f", 40)
    assert store.size("f") == 40
    assert list(out) == list(range(4, 12))
    assert list(store.read("f", 0, 20)) == list(range(20))


# -- disk: the same timed operation ----------------------------------------


def _faulty_disk_run(use_read_into):
    """Reads of every size under transient and permanent disk faults and
    a straggler; returns everything either read path could move."""
    plan = (FaultPlan(seed=5)
            .with_disk_faults(0.3)
            .with_disk_fault_at(rank=0, op_index=9, permanent=True)
            .with_straggler(rank=0, slowdown=3.0, start=0.05, end=0.4))
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    metrics = kernel.enable_metrics()
    disk = Disk(kernel, MemoryStorage(),
                HardwareModel(disk_bandwidth=1e5, disk_seek=0.01),
                injector=FaultInjector(kernel, plan, 1),
                retry=RetryPolicy(max_attempts=6))
    disk.storage.write("f", 0, np.arange(256, dtype=np.uint8))
    results = []

    def reader():
        for offset, nbytes in [(0, 16), (16, 64), (0, 0), (200, 56),
                               (3, 100), (100, 150), (0, 256), (250, 6),
                               (7, 9), (64, 64), (128, 128), (1, 1)]:
            try:
                if use_read_into:
                    out = np.empty(nbytes, dtype=np.uint8)
                    disk.read_into("f", offset, out)
                else:
                    out = disk.read("f", offset, nbytes)
                results.append(bytes(out))
            except FaultInjected as exc:
                results.append(("fault", str(exc), exc.permanent))

    kernel.spawn(reader, name="reader")
    kernel.run()
    retry = {kind: {name: m for name, m in group.items()
                    if name.startswith("retry.disk")}
             for kind, group in metrics.snapshot().items()
             if isinstance(group, dict)}
    return (results, tracer.events, retry, disk.bytes_read, disk.reads,
            kernel.now())


def test_disk_read_into_is_disk_read_under_faults_and_a_straggler():
    fresh = _faulty_disk_run(use_read_into=False)
    landed = _faulty_disk_run(use_read_into=True)
    assert landed == fresh
    results, _events, retry, _bytes, _reads, _now = fresh
    # not vacuous: transient faults were retried and one was permanent
    assert any(isinstance(r, tuple) and r[2] for r in results)
    assert retry["counters"]["retry.disk.retries"]["value"] > 0


# -- the buffer a read fills ---------------------------------------------------


def _buffer(capacity=64):
    pipeline = Pipeline("p", [Stage.map("s", lambda ctx, b: b)],
                        nbuffers=1, buffer_bytes=capacity)
    return pipeline, Buffer(pipeline, 0, capacity)


def test_fill_sets_size_and_hands_out_the_buffer_itself():
    _pipeline, buf = _buffer()
    records = buf.fill(RECORD, 3)
    assert buf.size == 48 and records.dtype == RECORD and len(records) == 3
    records["key"] = [7, 8, 9]
    assert list(buf.view(RECORD)["key"]) == [7, 8, 9]
    assert len(buf.fill(RECORD, 0)) == 0 and buf.size == 0


def test_fill_refuses_what_put_refuses():
    pipeline, buf = _buffer()
    with pytest.raises(StageError, match="capacity 64"):
        buf.fill(RECORD, 5)
    with pytest.raises(StageError, match="capacity 64"):
        buf.fill(np.uint8, -1)
    assert buf.size == 0
    with pytest.raises(StageError, match="caboose"):
        Buffer.caboose(pipeline).fill(np.uint8, 1)
    buf.release()
    with pytest.raises(StageError, match="released buffer"):
        buf.fill(np.uint8, 1)


def test_fgsan_reports_fill_on_a_conveyed_buffer():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="san", sanitize=True)

    def bad(ctx):
        buf = ctx.accept()
        ctx.convey(buf)
        buf.fill(np.uint8, 4)  # the buffer belongs downstream now

    prog.add_pipeline("p", [Stage.source_driven("bad", bad)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    kernel.spawn(prog.run, name="driver")
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run()
    cause = exc_info.value.original
    if isinstance(cause, PipelineFailed):
        cause = cause.failures[0].cause
    assert isinstance(cause, SanitizerError)
    assert cause.kind == "use_after_convey"
    assert "fill on" in str(cause)
