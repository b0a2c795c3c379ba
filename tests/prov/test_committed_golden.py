"""Cross-commit gate: the *committed* golden records must still replay.

``benchmarks/bench_golden_runs.py`` and CI's ``golden-runs`` job record
and replay in one session, so they prove determinism but never notice a
commit that moved a simulated timeline or a stage-graph fingerprint.
This test replays the records as committed: any PR that changes what a
run *does* (rather than what it costs the host) has to re-record them on
purpose, in a commit of its own.
"""

import glob
import os

import pytest

from repro.prov import ProvenanceRecord, replay

RESULTS = os.path.join(os.path.dirname(__file__), "..", "..",
                       "benchmarks", "results")
GOLDEN = sorted(glob.glob(os.path.join(RESULTS, "golden_*.prov.json")))


def test_the_three_flagship_records_are_committed():
    assert [os.path.basename(p) for p in GOLDEN] == [
        "golden_chaos.prov.json", "golden_csort.prov.json",
        "golden_dsort.prov.json"]


@pytest.mark.parametrize("path", GOLDEN, ids=os.path.basename)
def test_committed_golden_record_replays(path):
    record = ProvenanceRecord.load(path)
    result = replay(record)
    # only the code fingerprint may differ from the recording
    assert result.stage_graphs_match, (
        record.stage_graphs, result.replayed.stage_graphs)
    assert set(result.matches) >= {"output", "metrics", "trace"}
    assert all(result.matches.values()), result.to_json()
    assert result.ok
    assert "REPRODUCED" in result.describe()
