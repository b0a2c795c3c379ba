"""Differential test for ``RecordSchema.sort``, the one block-sort kernel.

The kernel ranks most inputs with one SIMD-dispatched value sort of
``(key, position)`` packed into a ``uint64``; a few ascending runs, small
blocks, and keys too wide to pack whose dropped low bits would misorder
them go to the adaptive stable sort.  Whatever it picks, the result must
equal ``records[np.argsort(keys, kind="stable")]`` byte for byte.
Payloads carry a *serial number* here: with ``from_keys`` payloads equal
keys are byte-identical records, and a kernel that shuffled ties would
pass unnoticed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm import records as records_module
from repro.pdm.records import RecordSchema

SHAPES = ("distinct", "few_values", "all_equal", "presorted", "reversed",
          "two_runs", "k_runs", "ties_across_runs", "collide")


def make_keys(shape: str, n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    wide = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64)
    narrow = rng.integers(0, k, size=n, dtype=np.uint64)

    def runs(keys, pieces):
        return np.concatenate(
            [np.sort(part) for part in np.array_split(keys, pieces)])

    if shape == "distinct":
        return rng.permutation(n).astype(np.uint64) * np.uint64(2**50 + 1)
    if shape == "few_values":
        return narrow
    if shape == "all_equal":
        return np.full(n, k, dtype=np.uint64)
    if shape == "presorted":
        return np.sort(rng.integers(0, n // 2 + 1, size=n, dtype=np.uint64))
    if shape == "reversed":
        return np.sort(rng.integers(0, n // 2 + 1, size=n,
                                    dtype=np.uint64))[::-1].copy()
    if shape == "two_runs":
        return runs(wide, 2)
    if shape == "k_runs":
        return runs(wide, k)
    if shape == "collide":
        # pairs of keys that differ only in their low 9 bits, the later
        # one lower, over a 64-bit span: a packed sort keeps 64 - b of
        # those bits (b >= 10 past the probe), so the pair shares its
        # kept bits and ranks by position, descending
        keys = np.repeat(wide[:(n + 1) // 2] >> 9 << 9, 2)[:n]
        keys[0::2] |= 0x100
        keys[1::2] |= 0x001
        keys[n // 2:n // 2 + 1] = 0          # the span starts at 0
        return keys
    # every run draws from the same k values, so each value's ties end
    # one run and start the next
    return runs(narrow, max(2, k // 3))


def numbered(schema: RecordSchema, keys: np.ndarray) -> np.ndarray:
    """Records whose payload starts with the record's input position."""
    recs = schema.empty(len(keys))
    recs["key"] = keys
    if schema.record_bytes >= 16:
        raw = recs.view(np.uint8).reshape(len(keys), schema.record_bytes)
        raw[:, 8:16] = (np.arange(len(keys), dtype="<u8")
                        .view(np.uint8).reshape(len(keys), 8))
    return recs


def stable_reference(recs: np.ndarray) -> np.ndarray:
    return recs[np.argsort(recs["key"], kind="stable")]


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(SHAPES), n=st.integers(0, 3000),
       k=st.integers(1, 96), seed=st.integers(0, 2**32 - 1),
       record_bytes=st.sampled_from([8, 16, 64]))
def test_sort_equals_the_stable_argsort_byte_for_byte(shape, n, k, seed,
                                                      record_bytes):
    schema = RecordSchema(record_bytes)
    recs = numbered(schema, make_keys(shape, n, k, seed))
    before = recs.tobytes()
    out = schema.sort(recs)
    assert out.dtype == recs.dtype
    assert out.tobytes() == stable_reference(recs).tobytes()
    assert recs.tobytes() == before            # the input is not mutated
    assert not np.shares_memory(out, recs)     # and the result is fresh
    out[...] = schema.empty(len(out))
    assert recs.tobytes() == before


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("record_bytes", [16, 64])
def test_sort_at_block_size_every_shape(shape, record_bytes):
    """The sizes the sorters use (a Hypothesis run may draw few of them)."""
    schema = RecordSchema(record_bytes)
    for n, k in ((16384, 64), (4096, 7), (2049, 96)):
        recs = numbered(schema, make_keys(shape, n, k, seed=n + k))
        assert (schema.sort(recs).tobytes()
                == stable_reference(recs).tobytes()), (n, k)


def test_sort_of_a_strided_view():
    schema = RecordSchema.paper_16()
    recs = numbered(schema, make_keys("few_values", 6000, 5, seed=1))[::2]
    assert not recs.flags.c_contiguous
    assert schema.sort(recs).tobytes() == stable_reference(recs).tobytes()


class _NumpySpy:
    """``np`` as the kernel sees it, logging each ``argsort`` (with its
    kind) and ``arange`` call: the packed value sort is the one caller
    of ``arange``, so the log names the path an input took."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in ("argsort", "arange"):
            return real

        def spy(*args, **kwargs):
            self.calls.append(f"argsort:{kwargs.get('kind')}"
                              if name == "argsort" else name)
            return real(*args, **kwargs)
        return spy


ADAPTIVE = ["argsort:stable"]
PACKED = ["arange"]
FALLBACK = ["arange", "argsort:stable"]


def test_both_kernels_are_reached(monkeypatch):
    """Small blocks and a few runs go to the adaptive stable sort,
    everything else to the packed value sort with no ``argsort`` at
    all, and a prefix collision on to the stable fallback — so the
    differential tests above cover all three paths."""
    spy = _NumpySpy()
    monkeypatch.setattr(records_module, "np", spy)
    schema = RecordSchema.paper_16()
    for shape, n, path in (("few_values", 256, ADAPTIVE),
                           ("two_runs", 16384, ADAPTIVE),
                           ("presorted", 16384, ADAPTIVE),
                           ("all_equal", 16384, ADAPTIVE),
                           ("distinct", 16384, PACKED),
                           ("k_runs", 16384, PACKED),       # 64 runs
                           ("few_values", 16384, PACKED),
                           ("collide", 16384, FALLBACK)):
        spy.calls.clear()
        recs = numbered(schema, make_keys(shape, n, 64, seed=3))
        out = schema.sort(recs)
        assert spy.calls == path, (shape, n)
        assert out.tobytes() == stable_reference(recs).tobytes()
