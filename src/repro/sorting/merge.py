"""Incremental k-way merging of sorted record blocks.

:class:`BlockMerger` is the compute core of dsort's merge stage (paper,
Figure 5/7): it merges k sorted runs whose data arrives block by block.
The caller feeds one block per run, asks the merger to copy merged output
directly into an output array, and refills whichever run's head block
empties.  The merger never blocks — pipeline flow control stays in the FG
stage that owns it.

Merging is block-wise (after TPIE's external merge sorter): one numpy
pass per head block, not one Python iteration per record, and every
record goes through a sort once.  Each pass finds the *pivot* — the head
whose last record comes first in the merged order, i.e. the first head
that will run dry — cuts from every head the prefix that precedes that
record (one ``searchsorted`` each; none for a head whose next key
already lies beyond it), and merges the prefixes with one stable sort.

* **Tie rule.**  Output order is ``(key, rank, position)``: equal keys
  come out in the order of their runs' ``repr``, fixed at construction
  (so run ``10`` precedes run ``2``), then in block order.
* **Stop rule.**  ``merge_into`` returns when ``budget`` records are out
  or when the pivot's head drains (its last record is the last one
  emitted; feed or finish that run, then call again) — whichever comes
  first.  A run can only be finished while it has no head, so a draining
  head always belongs to an unfinished run.
* **What a pass keeps.**  A pass is usually longer than one ``budget``,
  so the merger keeps the copied prefixes and their sorted order, and the
  following calls only copy the next records out of them; the heads have
  already advanced past the whole cut.  Only the pivot can drain inside a
  pass: every other head's last record sorts after the pivot's, so it is
  never cut, and no block can be fed while no run is pending.  Everything
  still in a head therefore sorts after everything kept — as long as each
  run's blocks arrive in order, which ``feed`` checks.  The kept pass is
  a copy, never longer than the head blocks it was cut from, plus its
  sort order (one index per record).
"""

from __future__ import annotations

import operator
from typing import Hashable

import numpy as np

from repro.errors import SortError
from repro.pdm.records import RecordSchema

__all__ = ["BlockMerger"]


class _Head:
    """One run's head block.  ``feed`` does the per-block work once: the
    key column, the next uncut and the last key as Python ints, and the
    block as opaque items (numpy copies those whole, but a structured
    record field by field)."""

    __slots__ = ("run", "items", "keys", "pos", "first", "last", "lo", "hi")

    def __init__(self, run: Hashable, items: np.ndarray, keys: np.ndarray,
                 first: int, last: int):
        self.run = run
        self.items = items
        self.keys = keys
        #: items[pos:] are in no pass yet; ``first`` is keys[pos]
        self.pos = 0
        self.first = first
        self.last = last
        #: the kept pass holds this head's cut at [lo, hi)
        self.lo = self.hi = 0


_last_key = operator.attrgetter("last")


class BlockMerger:
    """Merge k sorted runs, pull-based, one head block per run."""

    def __init__(self, schema: RecordSchema, run_ids):
        self.schema = schema
        run_ids = list(run_ids)  # may be a one-shot iterable
        self._heads: dict[Hashable, _Head] = {}
        self._pending: set[Hashable] = set(run_ids)  # need a block
        if len(self._pending) != len(run_ids):
            raise SortError("duplicate run ids")
        self._by_rank = sorted(run_ids, key=repr)  # tie order, see above
        #: last key fed so far, per run
        self._fed_up_to: dict[Hashable, int] = {}
        # the kept pass: the copied prefixes, their sorted order, how much
        # of it is out, and the run whose head drains when all of it is
        self._merged = schema.empty(0)
        self._order = np.empty(0, dtype=np.intp)
        self._emitted = 0
        self._pivot_run: Hashable = None

    # -- run feeding ---------------------------------------------------------

    def feed(self, run: Hashable, records: np.ndarray) -> None:
        """Supply the next sorted block of ``run``."""
        if run not in self._pending:
            raise SortError(f"run {run!r} does not need a block")
        if len(records) == 0:
            raise SortError(f"empty block fed for run {run!r}")
        if records.dtype != self.schema.dtype:
            raise SortError(
                f"block of {records.dtype} fed for run {run!r}, not of the "
                f"merger's {self.schema.dtype}")
        keys = records["key"]
        first, last = int(keys[0]), int(keys[-1])
        if first < self._fed_up_to.get(run, 0):
            raise SortError(
                f"run {run!r} goes backwards: block starts at key {first} "
                f"after a block that ended at key {self._fed_up_to[run]}")
        self._fed_up_to[run] = last
        self._pending.discard(run)
        self._heads[run] = _Head(
            run, records.view(self.schema.item), keys, first, last)

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
        head is empty or the run finished), counting those cut into the
        kept pass but not yet emitted.  The recovery checkpoint uses this
        to journal per-run consumed positions without copying."""
        head = self._heads.get(run)
        if head is None:
            return 0
        rest = self._order[self._emitted:]
        cut = np.count_nonzero((rest >= head.lo) & (rest < head.hi))
        return len(head.items) - head.pos + int(cut)

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
        0 when all runs are exhausted.  Requires :attr:`ready`, and room
        for ``budget`` records of this merger's schema in ``out[start:]``.
        """
        if not self.ready:
            raise SortError(
                f"merge_into while runs {sorted(map(repr, self._pending))} "
                "await blocks")
        # checked before the merger moves: a pass advances the heads
        if out.dtype != self.schema.dtype:
            raise SortError(
                f"merge_into an array of {out.dtype}, not of the merger's "
                f"{self.schema.dtype}")
        if budget > 0 and not 0 <= start <= len(out) - budget:
            raise SortError(
                f"merge_into: no room for {budget} records at {start} in "
                f"an array of {len(out)}")
        if budget <= 0 or not self._heads:
            return 0
        if self._emitted == len(self._order):
            self._start_pass()
        order, emitted = self._order, self._emitted
        n = min(budget, len(order) - emitted)
        # indices are in range; any mode but "raise" skips a temporary
        self._merged.take(order[emitted:emitted + n], mode="clip",
                          out=out[start:start + n])
        self._emitted = emitted + n
        if self._emitted == len(order):
            # the caller must feed or finish the pivot's run to continue
            del self._heads[self._pivot_run]
            self._pending.add(self._pivot_run)
        return n

    def _start_pass(self) -> None:
        """Cut, copy and sort everything that precedes the pivot's last
        record, and advance every head past its cut."""
        heads = [self._heads[run] for run in self._by_rank
                 if run in self._heads]
        # min() keeps the first — the lowest rank — among equal last keys
        pivot = min(heads, key=_last_key)
        last, bound = pivot.last, pivot.keys[-1]
        parts, size, below = [], 0, True
        for head in heads:
            pos = head.pos
            # equal keys of lower-ranked runs precede the pivot's last
            # record, those of higher-ranked runs follow it
            if head is pivot:
                end, below = len(head.items), False
            elif head.first > last or (head.first == last and not below):
                head.lo = head.hi = 0  # nothing of this head in the pass
                continue
            else:
                # positions stay Python ints: they reach the merge log
                end = pos + int(head.keys[pos:].searchsorted(
                    bound, "right" if below else "left"))
                head.first = int(head.keys[end])
            parts.append(head.items[pos:end])
            head.pos = end
            head.lo, head.hi = size, size + end - pos
            size = head.hi
        # a copy, so no head view escapes
        self._merged = np.concatenate(parts).view(self.schema.dtype)
        self._order = np.argsort(self._merged["key"], kind="stable")
        self._emitted = 0
        self._pivot_run = pivot.run
