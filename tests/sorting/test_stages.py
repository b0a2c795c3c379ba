"""Direct tests for the stage library's protocols (the programs built
from it are covered by their own suites and pinned by the behaviour
manifest's ``stage-library/*`` lines)."""

import types

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.cluster.storage import MemoryStorage
from repro.errors import PipelineFailed, ProcessFailed, SortError
from repro.pdm.records import RecordSchema
from repro.sorting.dsort import DsortConfig, run_nowsort
from repro.sorting.stages import EndMarkers, partition_slices, scatter
from repro.workloads.generator import generate_input
from tests.sorting.test_failure_injection import FailingStorage

SCHEMA = RecordSchema.paper_16()


class RecordingComm:
    size = 4

    def __init__(self):
        self.sent = []

    def send(self, dest, payload, tag=0, meta=None):
        self.sent.append((dest, len(payload), tag, meta))


def stage(name):
    return types.SimpleNamespace(name=name)


def test_partition_slices_skips_empty_partitions():
    records = SCHEMA.from_keys(np.arange(6, dtype=np.uint64))
    slices = list(partition_slices(records, np.array([2, 0, 3, 1])))
    assert [(d, part["key"].tolist()) for d, part in slices] == [
        (0, [0, 1]), (2, [2, 3, 4]), (3, [5])]
    comm = RecordingComm()
    scatter(comm, SCHEMA, records, np.array([2, 0, 3, 1]), tag=9)
    assert comm.sent == [(0, 2, 9, None), (2, 3, 9, None), (3, 1, 9, None)]


def test_end_markers_go_to_every_listening_peer():
    comm = RecordingComm()
    EndMarkers(comm, SCHEMA, 7).send()
    assert comm.sent == [(d, 0, 7, None) for d in range(4)]
    comm = RecordingComm()
    EndMarkers(comm, SCHEMA, 7, producer="b2",
               skip=lambda dest: dest == 1).send()
    assert comm.sent == [(d, 0, 7, {"producer": "b2"}) for d in (0, 2, 3)]


def test_failure_hook_sends_a_dead_send_stages_markers_exactly_once():
    comm, state = RecordingComm(), {}
    hook = EndMarkers(comm, SCHEMA, 7).on_failure("send", state, "sent")
    hook(stage("write"), [], RuntimeError())   # not the send stage
    assert comm.sent == [] and not state
    hook(stage("send"), [], RuntimeError())
    assert len(comm.sent) == 4 and state == {"sent": True}
    hook(stage("send"), [], RuntimeError())    # already compensated
    assert len(comm.sent) == 4
    # a send stage that got its markers out before dying is owed nothing
    comm, state = RecordingComm(), {"sent": True}
    EndMarkers(comm, SCHEMA, 7).on_failure("send", state, "sent")(
        stage("send"), [], RuntimeError())
    assert comm.sent == []


class FailingOutput(FailingStorage):
    """Fails the first write to ``output`` only — pass 1's run files
    land, the merged output does not."""

    def write(self, name, offset, data):
        if name == "output":
            super().write(name, offset, data)
        else:
            MemoryStorage.write(self, name, offset, data)


def test_merge_over_a_poisoned_output_pipeline_says_so():
    """The output pipeline's ``write`` dies; the merge stage then accepts
    a caboose where it expects an output buffer.  RunMerge.take raises
    (poisoning the verticals, so every source winds down) instead of
    writing into the caboose."""
    cluster = Cluster(n_nodes=1, hardware=HardwareModel(
        net_bandwidth=1e9, net_latency=1e-6, disk_bandwidth=1e9,
        disk_seek=1e-5), storages=[FailingOutput(1, armed=True)])
    generate_input(cluster, SCHEMA, 2000, "uniform")
    with pytest.raises(ProcessFailed) as exc_info:
        cluster.run(run_nowsort, SCHEMA, DsortConfig(
            block_records=256, vertical_block_records=64,
            out_block_records=256))
    failed = exc_info.value.original
    assert isinstance(failed, PipelineFailed)
    causes = {f.stage: f.cause for f in failed.failures}
    assert "injected media error" in str(causes["write"])
    assert isinstance(causes["merge"], SortError)
    assert "failed underneath its merge stage" in str(causes["merge"])
    assert all(not proc.alive for proc in cluster.kernel.processes)
