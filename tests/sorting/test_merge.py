"""Unit + property tests for the incremental k-way block merger."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import SortError
from repro.pdm.records import RecordSchema
from repro.sorting.merge import BlockMerger

from ._reference_merge import ReferenceMerger

SCHEMA = RecordSchema(8)


def recs(*keys):
    return SCHEMA.from_keys(np.array(keys, dtype=np.uint64))


def drive_merge(runs, block=3, budget=4):
    """Reference driver: feed runs block-by-block, collect all output."""
    blocks = {i: [np.asarray(r[j:j + block], dtype=np.uint64)
                  for j in range(0, len(r), block)]
              for i, r in enumerate(runs)}
    merger = BlockMerger(SCHEMA, list(blocks))
    out_all = []

    def refill():
        for run in sorted(merger.needs(), key=repr):
            if blocks[run]:
                merger.feed(run, recs(*blocks[run].pop(0)))
            else:
                merger.finish_run(run)

    refill()
    scratch = SCHEMA.empty(budget)
    while not merger.exhausted:
        if not merger.ready:
            refill()
            continue
        n = merger.merge_into(scratch, 0, budget)
        out_all.extend(int(k) for k in scratch["key"][:n])
    return out_all


def test_merge_two_runs():
    assert drive_merge([[1, 3, 5, 7], [2, 4, 6, 8]]) == list(range(1, 9))


def test_merge_three_uneven_runs():
    runs = [[10, 20, 30, 40, 50], [5], [15, 25]]
    assert drive_merge(runs) == sorted(sum(runs, []))


def test_merge_with_all_equal_keys():
    runs = [[7, 7, 7], [7, 7], [7, 7, 7, 7]]
    assert drive_merge(runs) == [7] * 9


def test_merge_single_run_streams_through():
    assert drive_merge([[1, 2, 3, 4, 5, 6, 7]]) == list(range(1, 8))


def test_merge_zero_runs_is_immediately_exhausted():
    merger = BlockMerger(SCHEMA, [])
    assert merger.exhausted
    assert merger.ready


def test_empty_run_finished_without_feeding():
    merger = BlockMerger(SCHEMA, ["a", "b"])
    merger.feed("a", recs(1, 2))
    merger.finish_run("b")
    out = SCHEMA.empty(10)
    assert merger.merge_into(out, 0, 10) == 2
    # the drained run must be declared finished before exhaustion shows
    assert merger.needs() == {"a"}
    merger.finish_run("a")
    assert merger.exhausted


def test_merge_stops_when_head_empties():
    merger = BlockMerger(SCHEMA, [0, 1])
    merger.feed(0, recs(1, 2))
    merger.feed(1, recs(10, 20))
    out = SCHEMA.empty(10)
    n = merger.merge_into(out, 0, 10)
    assert n == 2                     # run 0's head emptied
    assert merger.needs() == {0}
    merger.finish_run(0)
    n2 = merger.merge_into(out, n, 10 - n)
    assert list(out["key"][:n + n2]) == [1, 2, 10, 20]


def test_budget_respected():
    merger = BlockMerger(SCHEMA, [0])
    merger.feed(0, recs(*range(100)))
    out = SCHEMA.empty(7)
    assert merger.merge_into(out, 0, 7) == 7
    np.testing.assert_array_equal(out["key"], np.arange(7))


def test_merge_into_offset_start():
    merger = BlockMerger(SCHEMA, [0])
    merger.feed(0, recs(5, 6))
    out = SCHEMA.empty(5)
    n = merger.merge_into(out, 3, 2)
    assert n == 2
    assert list(out["key"][3:5]) == [5, 6]


def test_errors_on_misuse():
    merger = BlockMerger(SCHEMA, [0])
    with pytest.raises(SortError):
        merger.feed(1, recs(1))           # unknown run
    with pytest.raises(SortError):
        merger.feed(0, SCHEMA.empty(0))   # empty block
    merger.feed(0, recs(1))
    with pytest.raises(SortError):
        merger.feed(0, recs(2))           # head not consumed yet
    with pytest.raises(SortError):
        merger.finish_run(0)              # ditto
    merger2 = BlockMerger(SCHEMA, [0, 1])
    merger2.feed(0, recs(1))
    out = SCHEMA.empty(1)
    with pytest.raises(SortError):
        merger2.merge_into(out, 0, 1)     # run 1 still pending
    with pytest.raises(SortError, match="not of the merger's"):
        merger2.feed(1, RecordSchema(16).empty(1))  # another record size
    # a run that goes backwards: the merged order up to key 6 is already out
    merger3 = BlockMerger(SCHEMA, [7])
    merger3.feed(7, recs(5, 6))
    out = SCHEMA.empty(2)
    assert merger3.merge_into(out, 0, 2) == 2
    with pytest.raises(SortError, match=r"run 7 goes backwards.* 1 .* 6"):
        merger3.feed(7, recs(1, 2))
    assert merger3.needs() == {7}         # rejected: still wants its block
    merger3.feed(7, recs(6, 9))           # an equal key is in order
    assert merger3.merge_into(out, 0, 2) == 2
    assert out["key"].tolist() == [6, 9]


def test_rejected_merge_into_leaves_the_merger_where_it_was():
    """No room for ``budget`` records, or an ``out`` of another record
    size, fails before a pass is cut — with and without a kept pass."""
    run_ids = [0, 1]
    runs = {0: tagged([1, 4, 6, 9], 0), 1: tagged([2, 4, 5, 7], 10)}
    merger = BlockMerger(PAYLOAD, run_ids)
    for run in run_ids:
        merger.feed(run, runs[run])
    out = PAYLOAD.empty(8)

    def rejected():
        before = [merger.head_remaining(run) for run in run_ids]
        with pytest.raises(SortError, match="no room for 3 records at 6"):
            merger.merge_into(out, 6, 3)
        with pytest.raises(SortError, match="no room for 9 records at 0"):
            merger.merge_into(out, 0, 9)
        with pytest.raises(SortError, match="no room for 1 records at -1"):
            merger.merge_into(out, -1, 1)
        with pytest.raises(SortError, match="not of the merger's"):
            merger.merge_into(RecordSchema(64).empty(8), 0, 2)
        assert merger.ready and merger.needs() == set()
        assert [merger.head_remaining(run) for run in run_ids] == before

    rejected()                            # before the first pass
    assert merger.merge_into(out, 0, 3) == 3
    rejected()                            # with a pass half emitted
    assert merger.merge_into(out, 3, 5) == 4   # run 1 drains at key 7
    assert out["key"][:7].tolist() == [1, 2, 4, 4, 5, 6, 7]
    assert out[:7].tobytes() == stable_sorted(run_ids, runs)[:7].tobytes()
    assert merger.needs() == {1}


def test_galloping_takes_long_stretches():
    """A dominant run streams out in one merge_into call."""
    merger = BlockMerger(SCHEMA, [0, 1])
    merger.feed(0, recs(*range(1000)))
    merger.feed(1, recs(5000))
    out = SCHEMA.empty(2000)
    n = merger.merge_into(out, 0, 2000)
    assert n == 1000
    assert merger.needs() == {0}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=50),
                         min_size=0, max_size=30),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=8))
def test_property_merge_equals_sorted_concatenation(runs, block, budget):
    runs = [sorted(r) for r in runs]
    out = drive_merge(runs, block=block, budget=budget)
    assert out == sorted(sum(runs, []))


# -- constructor: one-shot iterables and genuine duplicates -------------------


def test_run_ids_may_be_a_one_shot_iterable():
    for run_ids in ((i for i in range(3)), iter([0, 1, 2]),
                    map(int, "012")):
        assert BlockMerger(SCHEMA, run_ids).needs() == {0, 1, 2}


def test_duplicate_run_ids_rejected():
    with pytest.raises(SortError, match="duplicate run ids"):
        BlockMerger(SCHEMA, [0, 1, 0])
    with pytest.raises(SortError, match="duplicate run ids"):
        BlockMerger(SCHEMA, (i % 2 for i in range(3)))


# -- differential: block-wise merge_into vs the head-at-a-time loop ------------

PAYLOAD = RecordSchema(16)


def tagged(keys, first_tag):
    """Sorted records whose payload is a serial number, so records with
    equal keys stay distinguishable in the output bytes."""
    records = PAYLOAD.empty(len(keys))
    records["key"] = np.sort(np.asarray(keys, dtype=np.uint64))
    records.view("<u8").reshape(-1, 2)[:, 1] = np.arange(
        first_tag, first_tag + len(keys))
    return records


def assert_same_as_reference(run_ids, runs, block, budgets):
    """Drive BlockMerger and the old loop in lockstep, checking after every
    call: return value, emitted bytes, head_remaining of every run, needs().
    ``budgets`` is cycled.  Returns everything emitted."""
    mergers = (BlockMerger(PAYLOAD, iter(run_ids)),
               ReferenceMerger(PAYLOAD, list(run_ids)))
    fed = dict.fromkeys(run_ids, 0)
    outs = [PAYLOAD.empty(max(budgets) + 1) for _ in mergers]
    emitted = []
    for call in itertools.count():
        assert mergers[0].needs() == mergers[1].needs()
        for run in sorted(mergers[0].needs(), key=repr):
            nxt = runs[run][fed[run]:fed[run] + block]
            fed[run] += block
            for merger in mergers:
                if len(nxt):
                    merger.feed(run, nxt)
                else:
                    merger.finish_run(run)
        assert mergers[0].ready and mergers[1].ready
        assert mergers[0].exhausted == mergers[1].exhausted
        if mergers[0].exhausted:
            break
        budget = budgets[call % len(budgets)]
        got, want = (m.merge_into(o, 1, budget)
                     for m, o in zip(mergers, outs))
        assert got == want
        assert outs[0][1:1 + got].tobytes() == outs[1][1:1 + got].tobytes()
        for run in run_ids:
            assert (mergers[0].head_remaining(run)
                    == mergers[1].head_remaining(run))
        emitted.append(outs[0][1:1 + got].copy())
    return np.concatenate(emitted) if emitted else PAYLOAD.empty(0)


def stable_sorted(run_ids, runs):
    """The specification: a stable sort on (key, rank, position), rank
    being the run's place in repr order."""
    ranked = [runs[run] for run in sorted(run_ids, key=repr)]
    everything = np.concatenate(ranked) if ranked else PAYLOAD.empty(0)
    return PAYLOAD.sort(everything)


RUN_IDS = st.one_of(
    st.lists(st.integers(0, 40), unique=True, max_size=13),   # ids >= 10
    st.lists(st.text("ab1", max_size=3), unique=True, max_size=8),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2)),
             unique=True, max_size=8))


@settings(max_examples=300, deadline=None)
@given(RUN_IDS, st.data(), st.sampled_from([1, 3, 2 ** 64 - 1]),
       st.integers(1, 8), st.lists(st.integers(0, 11), min_size=1,
                                   max_size=4).filter(any))
def test_differential_against_reference_loop(run_ids, data, max_key, block,
                                             budgets):
    runs, tag = {}, 0
    for run in run_ids:  # heavy ties (max_key 1 or 3), empty runs allowed
        keys = data.draw(st.lists(st.integers(0, max_key), max_size=20))
        runs[run] = tagged(keys, tag)
        tag += len(keys)
    merged = assert_same_as_reference(run_ids, runs, block, budgets)
    assert merged.tobytes() == stable_sorted(run_ids, runs).tobytes()


def test_tie_order_is_repr_order_so_run_10_precedes_run_2():
    """Golden digests depend on this order: pin it."""
    run_ids = [2, 10, 1]
    runs = {2: tagged([7, 7], 200), 10: tagged([7, 7], 1000),
            1: tagged([7], 100)}
    merged = assert_same_as_reference(run_ids, runs, block=8, budgets=[16])
    assert merged.view("<u8").reshape(-1, 2)[:, 1].tolist() == [
        100, 1000, 1001, 200, 201]


def test_budget_smaller_than_one_pass_cuts_the_sorted_order():
    """One pass would emit nine records; a budget of four emits the first
    four of the merged order and advances each head by its share."""
    run_ids = [0, 1, 2]
    runs = {0: tagged([1, 4, 4, 9], 0), 1: tagged([2, 4, 5, 6], 10),
            2: tagged([3, 4, 7, 8], 20)}
    merger = BlockMerger(PAYLOAD, run_ids)
    for run in run_ids:
        merger.feed(run, runs[run])
    out = PAYLOAD.empty(4)
    assert merger.merge_into(out, 0, 4) == 4
    assert out["key"].tolist() == [1, 2, 3, 4]
    assert [merger.head_remaining(run) for run in run_ids] == [2, 3, 3]
    assert merger.ready
    merged = assert_same_as_reference(run_ids, runs, block=4, budgets=[4])
    assert merged.tobytes() == stable_sorted(run_ids, runs).tobytes()


# -- state machine: any protocol, budget changing under a kept pass ----------


class MergerMachine(RuleBasedStateMachine):
    """BlockMerger and the reference loop, driven side by side through
    any legal sequence of feed / finish_run / merge_into, with block size
    and budget drawn per call — so the budget changes while a pass is half
    emitted — and every query compared after every step."""

    @initialize(run_ids=RUN_IDS, data=st.data(),
                max_key=st.sampled_from([1, 3, 2 ** 64 - 1]))
    def runs_to_merge(self, run_ids, data, max_key):
        self.run_ids = run_ids
        self.runs, tag = {}, 0
        for run in run_ids:
            keys = data.draw(st.lists(st.integers(0, max_key), max_size=20))
            self.runs[run] = tagged(keys, tag)
            tag += len(keys)
        self.mergers = (BlockMerger(PAYLOAD, iter(run_ids)),
                        ReferenceMerger(PAYLOAD, list(run_ids)))
        self.fed = dict.fromkeys(run_ids, 0)
        self.emitted = PAYLOAD.empty(0)

    def pending(self):
        return st.sampled_from(sorted(self.mergers[0].needs(), key=repr))

    @precondition(lambda self: self.mergers[0].needs())
    @rule(data=st.data(), block=st.integers(1, 8))
    def feed_or_finish(self, data, block):
        run = data.draw(self.pending(), label="run")
        nxt = self.runs[run][self.fed[run]:self.fed[run] + block]
        self.fed[run] += len(nxt)
        for merger in self.mergers:
            if len(nxt):
                merger.feed(run, nxt)
            else:
                merger.finish_run(run)

    @precondition(lambda self: self.mergers[0].needs())
    @rule(data=st.data())
    def finish_early(self, data):
        """A run may end before its data does: the rest is never seen."""
        run = data.draw(self.pending(), label="run")
        self.runs[run] = self.runs[run][:self.fed[run]]
        for merger in self.mergers:
            merger.finish_run(run)

    @precondition(lambda self: self.mergers[0].ready)
    @rule(budget=st.integers(0, 11), start=st.integers(0, 2))
    def merge_into(self, budget, start):
        outs = [PAYLOAD.empty(start + budget) for _ in self.mergers]
        got, want = (merger.merge_into(out, start, budget)
                     for merger, out in zip(self.mergers, outs))
        assert got == want
        assert (outs[0][start:start + got].tobytes()
                == outs[1][start:start + got].tobytes())
        self.emitted = np.concatenate([self.emitted,
                                       outs[0][start:start + got]])

    @precondition(lambda self: self.mergers[0].ready)
    @rule(budget=st.integers(1, 11), short=st.integers(1, 3))
    def merge_into_without_room(self, budget, short):
        with pytest.raises(SortError, match="no room"):
            self.mergers[0].merge_into(
                PAYLOAD.empty(max(budget - short, 0)), 0, budget)

    @invariant()
    def same_state_as_the_reference(self):
        merger, reference = self.mergers
        assert merger.needs() == reference.needs()
        assert merger.ready == reference.ready
        assert merger.exhausted == reference.exhausted
        remaining = [merger.head_remaining(run) for run in self.run_ids]
        assert remaining == [reference.head_remaining(run)
                             for run in self.run_ids]
        # what the recovery merge log journals as durable positions
        assert sum(self.fed.values()) - sum(remaining) == len(self.emitted)
        assert all(type(n) is int for n in remaining)

    @invariant()
    def emitted_is_a_prefix_of_the_specification(self):
        if self.mergers[0].exhausted:
            assert (self.emitted.tobytes()
                    == stable_sorted(self.run_ids, self.runs).tobytes())


TestMergerMachine = MergerMachine.TestCase
TestMergerMachine.settings = settings(derandomize=True, max_examples=150,
                                      stateful_step_count=40, deadline=None)
