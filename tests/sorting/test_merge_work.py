"""The merge sorts each record once — pinned as a count.

``BlockMerger`` keeps a pass's sorted remainder, so the records it hands
to ``np.argsort`` are exactly the records it emits.  Re-sorting the
remainder on every ``merge_into`` call is invisible to every output check
(same bytes, same return values) and costs 2–8x the sort work on the
benchmark workloads, so the count is pinned on those, at quick size.
"""

import os
import sys
import types

import numpy as np
import pytest

import repro.sorting.merge as merge_module

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

#: workload -> (records merged, merge_into calls) at seed 31, quick size
MERGED_AT_SEED_31 = {
    "dsort-uniform": (32768, 130),
    "groupby-dup": (4260, 18),
    "sched-mixed": (2179, 29),
    "chaos-recover": (4500, 75),
}


@pytest.fixture
def merge_work(monkeypatch):
    """``benchmarks/perf/workloads.py`` plus what the merge did during a
    workload: records through ``np.argsort`` inside ``repro.sorting.merge``,
    records emitted and ``merge_into`` calls."""
    monkeypatch.syspath_prepend(os.path.join(REPO, "benchmarks", "perf"))
    import workloads
    work = {"sorted": 0, "emitted": 0, "calls": 0}

    class Numpy(types.ModuleType):
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(a, *args, **kwargs):
            work["sorted"] += len(a)
            return np.argsort(a, *args, **kwargs)

    merge_into = merge_module.BlockMerger.merge_into

    def counting_merge_into(self, out, start, budget):
        n = merge_into(self, out, start, budget)
        work["emitted"] += n
        work["calls"] += 1
        return n

    monkeypatch.setattr(merge_module, "np", Numpy("numpy"))
    monkeypatch.setattr(merge_module.BlockMerger, "merge_into",
                        counting_merge_into)
    yield workloads.WORKLOADS, work
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", sorted(MERGED_AT_SEED_31))
def test_records_sorted_equal_records_emitted(merge_work, name):
    workloads, work = merge_work
    workloads[name](31, True, False)
    merged, calls = MERGED_AT_SEED_31[name]
    assert work == {"sorted": merged, "emitted": merged, "calls": calls}
