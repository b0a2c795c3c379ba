"""Incremental k-way merging of sorted record blocks.

:class:`BlockMerger` is the compute core of dsort's merge stage (paper,
Figure 5/7): it merges k sorted runs whose data arrives block by block.
The caller feeds one block per run, asks the merger to copy merged output
directly into an output array, and refills whichever run's head block
empties.  The merger never blocks — pipeline flow control stays in the FG
stage that owns it.

Merging is block-wise (after TPIE's external merge sorter): one numpy
pass per head block, not one Python iteration per record.  Each pass
finds the *pivot* — the head whose last record comes first in the merged
order, i.e. the first head that will run dry — cuts from every head the
prefix that precedes that record (one ``searchsorted`` each), and merges
the prefixes with one stable sort.

* **Tie rule.**  Output order is ``(key, rank, position)``: equal keys
  come out in the order of their runs' ``repr``, fixed at construction
  (so run ``10`` precedes run ``2``), then in block order.
* **Stop rule.**  ``merge_into`` makes one pass: it returns when
  ``budget`` records are out or when the pivot's head drains (its last
  record is the last one emitted; feed or finish that run, then call
  again) — whichever comes first.  A run can only be finished while it
  has no head, so a draining head always belongs to an unfinished run.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.errors import SortError
from repro.pdm.records import RecordSchema

__all__ = ["BlockMerger"]


class BlockMerger:
    """Merge k sorted runs, pull-based, one head block per run."""

    def __init__(self, schema: RecordSchema, run_ids):
        self.schema = schema
        run_ids = list(run_ids)  # may be a one-shot iterable
        self._heads: dict[Hashable, tuple[np.ndarray, int]] = {}
        self._pending: set[Hashable] = set(run_ids)  # need a block
        if len(self._pending) != len(run_ids):
            raise SortError("duplicate run ids")
        self._by_rank = sorted(run_ids, key=repr)  # tie order, see above

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
        head block empties (feed or finish it, then call again); returns
        0 when all runs are exhausted.  Requires :attr:`ready`.
        """
        if not self.ready:
            raise SortError(
                f"merge_into while runs {sorted(map(repr, self._pending))} "
                "await blocks")
        if budget <= 0 or not self._heads:
            return 0
        heads = [(run, *self._heads[run]) for run in self._by_rank
                 if run in self._heads]
        # argmin takes the lowest rank among equal last keys
        lasts = np.array([records["key"][-1] for _, records, _ in heads])
        pivot = int(lasts.argmin())
        parts = []
        for rank, (_, records, pos) in enumerate(heads):
            # equal keys of lower-ranked runs precede the pivot's last
            # record, those of higher-ranked runs follow it
            cut = records["key"][pos:].searchsorted(
                lasts[pivot], "right" if rank <= pivot else "left")
            parts.append(records[pos:pos + cut])
        # a copy, so no head view escapes; naming the dtype spares
        # numpy a per-part promotion of the record fields
        merged = np.concatenate(parts, dtype=out.dtype)
        order = np.argsort(merged["key"], kind="stable")
        taken = [len(part) for part in parts]
        if len(merged) > budget:
            order = order[:budget]
            source = np.searchsorted(np.cumsum(taken), order, "right")
            taken = np.bincount(source, minlength=len(parts)).tolist()
        # indices are in range; any mode but "raise" skips a temporary
        np.take(merged, order, mode="clip",
                out=out[start:start + len(order)])
        for (run, records, pos), n in zip(heads, taken):
            self._heads[run] = (records, pos + n)
        run, records, pos = heads[pivot]
        if pos + taken[pivot] == len(records):
            # the caller must feed or finish this run before continuing
            del self._heads[run]
            self._pending.add(run)
        return len(order)
