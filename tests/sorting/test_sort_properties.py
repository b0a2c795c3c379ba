"""Property-based end-to-end sorting tests: random shapes, random
distributions, tiny scales — both sorters must always produce verified
striped output."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, HardwareModel
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import StripedFile
from repro.sorting.columnsort import CsortConfig, run_csort
from repro.sorting.dsort import DsortConfig, run_dsort
from repro.sorting.verify import verify_striped_output
from repro.workloads.distributions import DISTRIBUTIONS
from repro.workloads.generator import generate_input


def fast_hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=50, max_value=700),
       st.sampled_from(sorted(DISTRIBUTIONS)),
       st.integers(min_value=0, max_value=100))
def test_property_dsort_always_correct(n_nodes, n_per_node, distribution,
                                       seed):
    cluster = Cluster(n_nodes=n_nodes, hardware=fast_hw())
    manifest = generate_input(cluster, RecordSchema.paper_16(),
                              n_per_node, distribution, seed=seed)
    config = DsortConfig(block_records=64, vertical_block_records=32,
                         out_block_records=48, oversample=8, seed=seed)
    cluster.run(run_dsort, RecordSchema.paper_16(), config)
    verify_striped_output(cluster, manifest, config.output_file,
                          config.out_block_records)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(1, 2048), (2, 2048), (2, 4096), (4, 2048),
                        (4, 8192)]),
       st.sampled_from(sorted(DISTRIBUTIONS)),
       st.integers(min_value=0, max_value=100))
def test_property_csort_always_correct(shape, distribution, seed):
    n_nodes, n_per_node = shape
    cluster = Cluster(n_nodes=n_nodes, hardware=fast_hw())
    manifest = generate_input(cluster, RecordSchema.paper_16(),
                              n_per_node, distribution, seed=seed)
    config = CsortConfig(out_block_records=32)
    cluster.run(run_csort, RecordSchema.paper_16(), config)
    verify_striped_output(cluster, manifest, config.output_file,
                          config.out_block_records)


@pytest.mark.parametrize("run, config", [
    (run_dsort, DsortConfig(block_records=2048, vertical_block_records=256,
                            out_block_records=512, oversample=32)),
    (run_csort, CsortConfig(out_block_records=512)),
], ids=["dsort", "csort"])
def test_heavy_duplicates_keep_every_numbered_record(run, config):
    """30 distinct keys over 4 x 16384 records whose payload is a global
    serial number.  ``from_keys`` payloads repeat with the key, so a
    sorter that dropped one tied record for a copy of another would
    still verify; here the output must hold each input record exactly
    once.  dsort's 2048-record blocks and csort's 4096-record columns
    reach the SIMD argsort and its tie repair."""
    numbered = np.dtype([("key", "<u8"), ("serial", "<u8")])
    schema = RecordSchema.paper_16()
    cluster = Cluster(n_nodes=4, hardware=fast_hw())
    written = np.zeros(4 * 16384, dtype=numbered)
    written["key"] = np.random.default_rng(11).integers(
        0, 30, size=len(written), dtype=np.uint64)
    written["serial"] = np.arange(len(written))
    for node, part in zip(cluster.nodes, np.split(written, 4)):
        RecordFile(node.disk, config.input_file, schema).poke(
            0, part.view(schema.dtype))
    cluster.run(run, schema, config)
    out = StripedFile(cluster, config.output_file, schema,
                      config.out_block_records).read_all().view(numbered)
    assert (out["key"][:-1] <= out["key"][1:]).all()
    assert out[np.argsort(out["serial"])].tobytes() == written.tobytes()
