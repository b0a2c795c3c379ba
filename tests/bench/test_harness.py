"""Tests for the benchmark harness (small scales so they stay quick)."""

import pytest

from repro.bench.harness import (
    SORTERS,
    default_csort_config,
    default_dsort_config,
    run_sort,
    stripe_block_records,
)
from repro.cluster import HardwareModel
from repro.errors import ProcessFailed, ReproError, SortError
from repro.pdm.records import RecordSchema

SCHEMA = RecordSchema.paper_16()


def small_hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


@pytest.mark.parametrize("sorter", SORTERS)
def test_run_sort_every_program(sorter):
    run = run_sort(sorter, "uniform", SCHEMA, n_nodes=2, n_per_node=2048,
                   hardware=small_hw())
    assert run.verified
    assert run.total_time > 0
    assert run.bytes_io > 0
    assert run.total_bytes == 2 * 2048 * 16
    if sorter.startswith("dsort") or sorter == "nowsort":
        assert run.partition_imbalance is not None
    else:
        assert run.partition_imbalance is None


def test_run_sort_phase_names_match_program():
    dsort = run_sort("dsort", "uniform", SCHEMA, n_nodes=2,
                     n_per_node=1024, hardware=small_hw())
    assert list(dsort.phase_times) == ["sampling", "pass1", "pass2"]
    csort4 = run_sort("csort4", "uniform", SCHEMA, n_nodes=2,
                      n_per_node=2048, hardware=small_hw())
    assert list(csort4.phase_times) == ["pass1", "pass2", "pass3", "pass4"]


def test_run_sort_unknown_program_rejected():
    with pytest.raises(ReproError) as exc_info:
        run_sort("bogosort", "uniform", SCHEMA, n_nodes=2,
                 n_per_node=100, hardware=small_hw())
    # the message lists what the table holds, not a hand-typed copy
    assert all(repr(name) in str(exc_info.value) for name in SORTERS)


def test_stripe_block_records_satisfies_csort_constraint():
    for n_total, n_nodes in ((2**18, 16), (2**14, 4), (2**12, 2)):
        block = stripe_block_records(n_total, n_nodes)
        assert block >= 1
        # legal for csort: P * block <= r for the planner's shape
        from repro.sorting.columnsort import plan_columnsort
        plan = plan_columnsort(n_total, n_nodes)
        assert block * n_nodes <= plan.r


def test_default_configs_are_consistent():
    dsort_cfg = default_dsort_config(2**16, 4)
    csort_cfg = default_csort_config(2**16, 4)
    # both sorts stripe with the same block so outputs are comparable
    assert dsort_cfg.out_block_records == csort_cfg.out_block_records
    assert dsort_cfg.vertical_block_records <= dsort_cfg.block_records


def test_run_sort_is_deterministic():
    runs = [run_sort("dsort", "poisson", SCHEMA, n_nodes=2,
                     n_per_node=1024, hardware=small_hw(), seed=5)
            for _ in range(2)]
    assert runs[0].phase_times == runs[1].phase_times
    assert runs[0].bytes_io == runs[1].bytes_io


@pytest.mark.parametrize("sorter", ["dsort", "csort"])
def test_provenance_output_digest_is_pinned(sorter):
    """Recorded when the digest hashed ``read_all().tobytes()`` in one
    piece; both sorters produce the same striped bytes."""
    run = run_sort(sorter, "uniform", SCHEMA, n_nodes=2, n_per_node=2048,
                   seed=7, provenance=True)
    assert run.provenance.digests["output"] == (
        "c63e8a62445b84edb1fd510d8d6dc815"
        "db4eb45a40561b2bbc06b178c79a3f2e")


def _processes(run) -> int:
    return int(run.metrics.snapshot()["counters"]
               ["kernel.processes_spawned"]["value"])


@pytest.mark.parametrize("sorter", SORTERS)
def test_no_sorter_swallows_sort_replicas(sorter):
    """``run_sort`` promises "tuners cannot silently search a no-op
    axis": a sorter handed ``sort_replicas`` either runs a different
    program (more processes, other stage graphs) or refuses by name."""
    def run(tune=None):
        return run_sort(sorter, "uniform", SCHEMA, n_nodes=2,
                        n_per_node=2048, tune=tune, provenance=True)

    if sorter == "dsort-linear":
        with pytest.raises(ProcessFailed) as exc_info:
            run({"sort_replicas": 2})
        assert isinstance(exc_info.value.original, SortError)
        assert "sort_replicas" in str(exc_info.value.original)
        return
    default, replicated = run(), run({"sort_replicas": 2})
    assert _processes(replicated) > _processes(default)
    graphs, default_graphs = (replicated.provenance.stage_graphs,
                              default.provenance.stage_graphs)
    assert graphs.keys() == default_graphs.keys()
    assert any(graphs[name] != default_graphs[name] for name in graphs)
    assert replicated.provenance.digests["output"] \
        == default.provenance.digests["output"]
