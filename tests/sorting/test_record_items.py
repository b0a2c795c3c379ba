"""Records copied as opaque items across csort's exchanges.

csort's ``communicate``, ``shift`` and ``stripe`` stages (and csort4's
``shift``) move records without reading them, so they copy each record
as one :attr:`RecordSchema.item` — a ``record_bytes``-wide void — and
send it as a record again.  Whatever the width, with or without a
payload field, the striped output read back in global order must be the
input sorted, byte for byte.  Payloads are derived from keys, so equal
keys mean equal records and the order among ties cannot show.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, HardwareModel
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.pdm.striped import StripedFile
from repro.sorting.columnsort import CsortConfig, run_csort, run_csort4
from repro.workloads.generator import generate_input

N_PER_NODE = 1024
BLOCK = 64

#: (sorter, record width, nodes, s_override); widths 8 (key only, no
#: payload field), 12 (payload under the 8-byte stamp), 24 and 64
CASES = [(sorter, width, nodes, None)
         for sorter in (run_csort, run_csort4)
         for width in (8, 12, 24, 64)
         for nodes in (1, 2, 4)]
#: a narrower matrix than the planner's (s = 8 at 4 x 1024): 4 columns
#: of 1024 records, one per node
CASES += [(run_csort, 12, 4, 4), (run_csort4, 24, 4, 4)]


def _case_id(case):
    sorter, width, nodes, s = case
    return (f"{sorter.__name__}-{width}B-P{nodes}"
            + (f"-s{s}" if s else ""))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_striped_output_is_the_sorted_input_byte_for_byte(case):
    sorter, width, nodes, s_override = case
    schema = RecordSchema(width)
    cluster = Cluster(n_nodes=nodes, hardware=HardwareModel(
        net_bandwidth=1e9, net_latency=1e-6, disk_bandwidth=1e9,
        disk_seek=1e-5))
    generate_input(cluster, schema, N_PER_NODE, "poisson", seed=width)
    config = CsortConfig(out_block_records=BLOCK, s_override=s_override)
    inputs = np.concatenate(
        [RecordFile(node.disk, config.input_file, schema).read_all()
         for node in cluster.nodes])
    assert len(np.unique(inputs["key"])) < len(inputs)  # ties present

    cluster.run(sorter, schema, config)

    output = StripedFile(cluster, config.output_file, schema,
                         BLOCK).read_all()
    assert output.dtype == schema.dtype
    assert output.tobytes() == schema.sort(inputs).tobytes()


@pytest.mark.parametrize("width", [8, 9, 16, 64])
def test_item_is_one_opaque_record(width):
    schema = RecordSchema(width)
    assert schema.item == np.dtype((np.void, width))
    assert schema.item.itemsize == schema.dtype.itemsize == width
    assert schema.item.fields is None


def test_item_view_round_trips_a_key_only_schema():
    schema = RecordSchema(8)
    assert schema.dtype.names == ("key",)
    records = schema.from_keys(np.array([5, 1, 9, 1], dtype=np.uint64))
    items = records.view(schema.item)
    assert items.shape == records.shape
    copied = items[::-1].copy().view(schema.dtype)
    assert copied.dtype == schema.dtype
    assert copied["key"].tolist() == [1, 9, 1, 5]
    assert np.shares_memory(items, records)
