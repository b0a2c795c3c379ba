"""End-to-end tests for csort (3-pass out-of-core columnsort)."""

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.errors import ColumnsortShapeError, ProcessFailed
from repro.pdm.records import RecordSchema
from repro.sorting.columnsort import CsortConfig, run_csort, run_csort4
from repro.sorting.verify import verify_striped_output
from repro.workloads.distributions import PAPER_DISTRIBUTIONS
from repro.workloads.generator import generate_input


def fast_hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


def run_csort_case(n_nodes=4, n_per_node=2048, distribution="uniform",
                   schema=None, config=None, seed=0):
    schema = schema or RecordSchema.paper_16()
    config = config or CsortConfig(out_block_records=128)
    cluster = Cluster(n_nodes=n_nodes, hardware=fast_hw())
    manifest = generate_input(cluster, schema, n_per_node, distribution,
                              seed=seed)
    reports = cluster.run(run_csort, schema, config)
    verify_striped_output(cluster, manifest, config.output_file,
                          config.out_block_records)
    return cluster, manifest, reports, config


@pytest.mark.parametrize("distribution", PAPER_DISTRIBUTIONS)
def test_csort_sorts_every_paper_distribution(distribution):
    run_csort_case(distribution=distribution)


def test_csort_64_byte_records():
    run_csort_case(schema=RecordSchema.paper_64(), n_per_node=2048)


def test_csort_single_node():
    run_csort_case(n_nodes=1, n_per_node=4096,
                   config=CsortConfig(out_block_records=64))


def test_csort_two_nodes():
    run_csort_case(n_nodes=2, n_per_node=4096,
                   config=CsortConfig(out_block_records=256))


def test_csort_plan_is_consistent_across_nodes():
    _, _, reports, _ = run_csort_case()
    plans = {(r.plan.r, r.plan.s) for r in reports}
    assert len(plans) == 1
    (r, s) = plans.pop()
    assert r * s == 4 * 2048


def test_csort_three_passes_of_io():
    """csort reads and writes each record exactly three times, the 50%
    I/O-volume disadvantage vs dsort's two passes (paper, Section I)."""
    cluster, manifest, _, _ = run_csort_case(n_nodes=4, n_per_node=2048)
    total_bytes = manifest.total_bytes
    assert cluster.total_bytes_io() == pytest.approx(6 * total_bytes,
                                                     rel=0.01)


def test_csort_balanced_io_across_nodes():
    """Every node reads and writes exactly the average volume
    (paper, Section I: a csort advantage)."""
    cluster, _, _, _ = run_csort_case(n_nodes=4, n_per_node=2048)
    volumes = [node.disk.bytes_total for node in cluster.nodes]
    assert max(volumes) == min(volumes)


def test_csort_report_times():
    _, _, reports, _ = run_csort_case()
    for rep in reports:
        assert rep.pass1_time > 0
        assert rep.pass2_time > 0
        assert rep.pass3_time > 0
        assert rep.total_time == pytest.approx(
            rep.pass1_time + rep.pass2_time + rep.pass3_time)


def test_csort_uneven_input_rejected():
    schema = RecordSchema.paper_16()
    cluster = Cluster(n_nodes=2, hardware=fast_hw())
    generate_input(cluster, schema, 2048, "uniform")
    # make node 1's input longer
    from repro.pdm.blockfile import RecordFile
    rf = RecordFile(cluster.node(1).disk, "input", schema)
    rf.poke(2048, schema.from_keys(np.array([1], dtype=np.uint64)))
    with pytest.raises(ProcessFailed) as exc_info:
        cluster.run(run_csort, schema, CsortConfig())
    assert isinstance(exc_info.value.original, ColumnsortShapeError)


def test_csort_oversized_stripe_block_rejected():
    schema = RecordSchema.paper_16()
    cluster = Cluster(n_nodes=4, hardware=fast_hw())
    generate_input(cluster, schema, 2048, "uniform")
    config = CsortConfig(out_block_records=10**6)
    with pytest.raises(ProcessFailed) as exc_info:
        cluster.run(run_csort, schema, config)
    assert isinstance(exc_info.value.original, ColumnsortShapeError)


def test_csort_s_override():
    config = CsortConfig(out_block_records=128, s_override=8)
    _, _, reports, _ = run_csort_case(n_nodes=4, n_per_node=2048,
                                      config=config)
    assert reports[0].plan.s == 8


def test_csort_cleanup_removes_temps():
    cluster, _, _, config = run_csort_case()
    for node in cluster.nodes:
        assert not node.disk.exists(config.temp1_file)
        assert not node.disk.exists(config.temp2_file)


@pytest.mark.parametrize("cleanup", [True, False])
@pytest.mark.parametrize("main, n_temps", [(run_csort, 2), (run_csort4, 3)])
def test_temporaries_go_with_their_pass_unless_kept(main, n_temps, cleanup):
    """Each temporary is deleted after the pass that last reads it, so
    none is left when the sort returns; ``cleanup_temps=False`` keeps
    every one, whole, for both sorters."""
    schema = RecordSchema.paper_16()
    config = CsortConfig(out_block_records=128, cleanup_temps=cleanup)
    cluster = Cluster(n_nodes=4, hardware=fast_hw())
    manifest = generate_input(cluster, schema, 2048, "uniform")
    cluster.run(main, schema, config)
    verify_striped_output(cluster, manifest, config.output_file,
                          config.out_block_records)
    for node in cluster.nodes:
        temps = [name for name in node.disk.names()
                 if name.startswith("csort-L")]
        if cleanup:
            assert temps == []
        else:
            assert len(temps) == n_temps
            assert all(node.disk.size(name) >= 2048 * schema.record_bytes
                       for name in temps)


def test_csort_communication_volume_near_balanced():
    """Nodes put (almost) the same byte volume on the wire; the only
    variation comes from the striping round's partial blocks and from
    loopback shares, both a few percent at this scale."""
    cluster, _, _, _ = run_csort_case(n_nodes=4, n_per_node=2048)
    sent = cluster.network.bytes_sent
    assert max(sent) - min(sent) <= 0.10 * max(sent)
