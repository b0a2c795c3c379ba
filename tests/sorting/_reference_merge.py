"""Test-only oracle: the head-at-a-time merge loop that
``repro.sorting.merge.BlockMerger`` shipped with up to PR 12, verbatim.

The block-wise ``merge_into`` must be observationally identical to this
loop on every call (return value, emitted bytes, ``head_remaining``,
``needs()``); ``test_merge.py`` drives both side by side.  Not importable
from ``src/``.  (``__init__`` keeps the old one-shot-iterable defect too:
construct it from a list.)
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.errors import SortError
from repro.pdm.records import RecordSchema

__all__ = ["ReferenceMerger"]


class ReferenceMerger:
    """Merge k sorted runs, pull-based, one head block per run."""

    def __init__(self, schema: RecordSchema, run_ids):
        self.schema = schema
        self._heads: dict[Hashable, tuple[np.ndarray, int]] = {}
        self._pending: set[Hashable] = set(run_ids)  # need a block
        self._finished: set[Hashable] = set()
        if len(self._pending) != len(list(run_ids)):
            raise SortError("duplicate run ids")

    # -- run feeding ---------------------------------------------------------

    def feed(self, run: Hashable, records: np.ndarray) -> None:
        """Supply the next sorted block of ``run``."""
        if run not in self._pending:
            raise SortError(f"run {run!r} does not need a block")
        if len(records) == 0:
            raise SortError(f"empty block fed for run {run!r}")
        self._pending.discard(run)
        self._heads[run] = (records, 0)

    def finish_run(self, run: Hashable) -> None:
        """Declare that ``run`` has no more blocks."""
        if run not in self._pending:
            raise SortError(
                f"run {run!r} cannot finish while it has an unconsumed head")
        self._pending.discard(run)
        self._finished.add(run)

    # -- state queries ------------------------------------------------------------

    def needs(self) -> set:
        """Runs whose next block must be fed before merging can continue."""
        return set(self._pending)

    def head_remaining(self, run: Hashable) -> int:
        """Unconsumed records in ``run``'s current head block (0 if the
        head is empty or the run finished).  The recovery checkpoint uses
        this to journal per-run consumed positions without copying."""
        if run not in self._heads:
            return 0
        records, pos = self._heads[run]
        return len(records) - pos

    @property
    def ready(self) -> bool:
        """True when merging can proceed (no run awaits a block)."""
        return not self._pending

    @property
    def exhausted(self) -> bool:
        """True when every run has finished and all heads drained."""
        return not self._pending and not self._heads

    # -- merging ---------------------------------------------------------------------

    def merge_into(self, out: np.ndarray, start: int, budget: int) -> int:
        """Copy up to ``budget`` merged records into ``out[start:]``.

        Returns the number of records copied.  Stops early when a run's
        head block empties (feed it, then call again) or when all runs are
        exhausted.  Requires :attr:`ready`.
        """
        if not self.ready:
            raise SortError(
                f"merge_into while runs {sorted(map(repr, self._pending))} "
                "await blocks")
        copied = 0
        while copied < budget and self._heads:
            run, records, pos = self._min_head()
            keys = records["key"]
            competitor = self._second_smallest_key(run)
            if competitor is None:
                take = len(records) - pos
            else:
                # all records strictly below the competitor can stream out;
                # on a tie take one record to guarantee progress
                take = int(np.searchsorted(keys[pos:], competitor,
                                           side="left"))
                take = max(take, 1)
            take = min(take, budget - copied, len(records) - pos)
            out[start + copied:start + copied + take] = \
                records[pos:pos + take]
            copied += take
            pos += take
            if pos == len(records):
                del self._heads[run]
                if run not in self._finished:
                    self._pending.add(run)
                    break  # caller must feed this run before continuing
            else:
                self._heads[run] = (records, pos)
        return copied

    def _min_head(self) -> tuple[Hashable, np.ndarray, int]:
        best = None
        for run, (records, pos) in self._heads.items():
            key = records["key"][pos]
            cand = (key, repr(run), run, records, pos)
            if best is None or cand[:2] < best[:2]:
                best = cand
        assert best is not None
        return best[2], best[3], best[4]

    def _second_smallest_key(self, exclude) -> Optional[np.uint64]:
        best = None
        for run, (records, pos) in self._heads.items():
            if run == exclude:
                continue
            key = records["key"][pos]
            if best is None or key < best:
                best = key
        return best
