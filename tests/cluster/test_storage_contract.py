"""The Storage contract, for both backends at once.

A Hypothesis rule-based state machine drives :class:`MemoryStorage` and
:class:`FileStorage` with the same arbitrary sequence of operations and
compares both, after every step, against a plain ``bytearray`` model.
The profile is fixed (derandomized, bounded) so tier-1 runs the same
cases every time and pays a couple of seconds for them.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster.storage import FileStorage, MemoryStorage
from repro.errors import StorageError

PROFILE = settings(derandomize=True, max_examples=40,
                   stateful_step_count=25, deadline=None)

FILES = ("a", "b", "run.3")
NAMES = st.sampled_from(FILES)
RECORD = np.dtype([("key", "<u8"), ("payload", "V8")])


@st.composite
def arrays(draw):
    """Contiguous, strided, reversed, 2-D transposed; uint8 and wider."""
    dtype = draw(st.sampled_from(["u1", "<u2", "<u8", RECORD]))
    count = draw(st.integers(0, 24))
    raw = draw(st.binary(min_size=count * np.dtype(dtype).itemsize,
                         max_size=count * np.dtype(dtype).itemsize))
    base = np.frombuffer(raw, dtype=dtype)
    shape = draw(st.sampled_from(["flat", "strided", "reversed", "2d.T"]))
    if shape == "strided":
        return base[::draw(st.integers(2, 3))]
    if shape == "reversed":
        return base[::-1]
    if shape == "2d.T" and count % 2 == 0:
        return base.reshape(2, count // 2).T
    return base


class StorageContract(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.stores = [MemoryStorage(), FileStorage(self.tmp.name)]
        self.model = {}
        #: (array a read returned, the bytes it held then)
        self.handed_out = []

    def teardown(self):
        self.tmp.cleanup()

    def around_the_end(self, name):
        """Positions before, at, and past the end of ``name``."""
        return st.integers(0, len(self.model.get(name, b"")) + 9)

    # -- mutators ----------------------------------------------------------

    @rule(name=NAMES, array=arrays(), data=st.data())
    def write(self, name, array, data):
        offset = data.draw(self.around_the_end(name), label="offset")
        for store in self.stores:
            store.write(name, offset, array)
        raw = np.ascontiguousarray(array).tobytes()
        buf = self.model.setdefault(name, bytearray())
        if offset > len(buf):
            buf.extend(bytes(offset - len(buf)))   # zero-filled gap
        buf[offset:offset + len(raw)] = raw

    @rule(name=NAMES, data=st.data())
    def truncate(self, name, data):
        """Fresh file, grow, shrink, to zero."""
        nbytes = data.draw(st.one_of(st.just(0), self.around_the_end(name)),
                           label="nbytes")
        for store in self.stores:
            store.truncate(name, nbytes)
        buf = self.model.setdefault(name, bytearray())
        if nbytes <= len(buf):
            del buf[nbytes:]
        else:
            buf.extend(bytes(nbytes - len(buf)))

    @rule(name=NAMES)
    def delete(self, name):
        for store in self.stores:
            store.delete(name)
        self.model.pop(name, None)

    # -- readers -----------------------------------------------------------

    @rule(name=NAMES, data=st.data())
    def read(self, name, data):
        if name not in self.model:
            for store in self.stores:
                with pytest.raises(StorageError):
                    store.read(name, 0, 0)
            return
        size = len(self.model[name])
        offset = data.draw(st.integers(0, size), label="offset")
        nbytes = data.draw(st.integers(0, size - offset), label="nbytes")
        expected = bytes(self.model[name][offset:offset + nbytes])
        for store in self.stores:
            out = store.read(name, offset, nbytes)
            assert out.dtype == np.uint8 and out.tobytes() == expected
            self.handed_out.append((out, expected))
            # a result the caller scribbles on: the file must not notice
            # (files_match_the_model re-reads it)
            store.read(name, offset, nbytes)[:] = 0xA5

    @rule(name=NAMES, data=st.data())
    def read_past_the_end_raises(self, name, data):
        size = len(self.model.get(name, b""))
        offset = data.draw(st.integers(0, size + 4), label="offset")
        nbytes = data.draw(st.integers(size - offset + 1, size + 9),
                           label="nbytes")
        for store in self.stores:
            with pytest.raises(StorageError):
                store.read(name, offset, nbytes)

    @rule(name=NAMES, array=arrays(), bad=st.integers(-9, -1))
    def negative_offsets_and_lengths_raise(self, name, array, bad):
        for store in self.stores:
            with pytest.raises(StorageError):
                store.read(name, bad, 1)
            with pytest.raises(StorageError):
                store.read(name, 0, bad)
            with pytest.raises(StorageError):
                store.write(name, bad, array)
            with pytest.raises(StorageError):
                store.truncate(name, bad)

    # -- after every step --------------------------------------------------

    @invariant()
    def files_match_the_model(self):
        for store in self.stores:
            assert store.names() == sorted(self.model)
            for name in FILES:
                held = self.model.get(name)
                assert store.exists(name) == (held is not None)
                assert store.size(name) == len(held or b"")
                if held is not None:
                    assert store.read(name, 0, len(held)).tobytes() == held

    @invariant()
    def earlier_reads_never_alias_the_store(self):
        for out, expected in self.handed_out:
            assert out.tobytes() == expected


TestStorageContract = StorageContract.TestCase
TestStorageContract.settings = PROFILE
