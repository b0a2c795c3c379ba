"""Core experiment runner: one sorting program, one workload, one cluster.

:func:`run_sort` builds a fresh simulated cluster, generates the workload,
runs the chosen sorting program SPMD, verifies the striped output against
the manifest (every benchmark run is also a correctness check), and
returns a :class:`SortRun` with the per-phase timings the paper's Figure 8
reports plus resource accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, NamedTuple, Optional

from repro.cluster import Cluster, HardwareModel
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.pdm.records import RecordSchema
from repro.sim import Tracer
from repro.sorting.columnsort import (
    CsortConfig,
    plan_columnsort,
    run_csort,
    run_csort4,
)
from repro.sorting.dsort import (
    DsortConfig,
    run_dsort,
    run_dsort_linear,
    run_nowsort,
)
from repro.sorting.verify import (
    verify_partitioned_output,
    verify_striped_output,
)
from repro.workloads.generator import generate_input

__all__ = [
    "SortRun",
    "benchmark_hardware",
    "default_dsort_config",
    "default_csort_config",
    "run_sort",
    "SORTERS",
    "PAPER_NODES",
    "BENCH_RECORDS_16B",
]

#: the paper's node count (Section VI)
PAPER_NODES = 16

#: default per-node record count for 16-byte-record benchmarks; 64-byte
#: benchmarks hold the BYTE volume constant, as the paper does with its
#: fixed 64 GB dataset
BENCH_RECORDS_16B = 16384


def benchmark_hardware() -> HardwareModel:
    """The scaled paper platform used by every benchmark (see
    :meth:`HardwareModel.scaled_paper_cluster`)."""
    return HardwareModel.scaled_paper_cluster()


def stripe_block_records(n_total: int, n_nodes: int) -> int:
    """A stripe block size legal for BOTH sorts (csort needs P*B <= r)."""
    plan = plan_columnsort(n_total, n_nodes)
    return min(1024, plan.r // n_nodes)


def default_dsort_config(n_total: int, n_nodes: int,
                         block_records: Optional[int] = None) -> DsortConfig:
    out_block = stripe_block_records(n_total, n_nodes)
    per_node = n_total // n_nodes
    block = block_records if block_records is not None \
        else max(out_block, min(4096, per_node // 8 or 1))
    # oversample=64 keeps splitter noise low at simulation-scale inputs
    # (the paper's 10%-of-average balance claim is about splitter quality,
    # not input size)
    return DsortConfig(block_records=block,
                       vertical_block_records=max(1, block // 2),
                       out_block_records=out_block,
                       oversample=64)


def default_csort_config(n_total: int, n_nodes: int) -> CsortConfig:
    return CsortConfig(out_block_records=stripe_block_records(n_total,
                                                              n_nodes))


class _Sorter(NamedTuple):
    """What :func:`run_sort` needs to know about one sorting program."""

    #: SPMD entry point, ``main(node, comm, schema, config) -> report``
    main: Callable[..., Any]
    #: ``(n_total, n_nodes, block_records) -> config`` at benchmark scale
    default_config: Callable[[int, int, Optional[int]], Any]
    #: one rank's report -> {phase name: seconds}, in execution order
    phases: Callable[[Any], dict[str, float]]
    #: output layout: one file striped over the cluster (True), or one
    #: sorted partition per node, in rank order (False)
    striped: bool


def _phases(*names: str) -> Callable[[Any], dict[str, float]]:
    """Phases a report carries as ``<name>_time`` attributes."""
    return lambda report: {name: getattr(report, f"{name}_time")
                           for name in names}


def _csort_config(n_total: int, n_nodes: int,
                  block_records: Optional[int]) -> CsortConfig:
    # csort's geometry is its column count; a pass-1 block size means
    # nothing to it
    return default_csort_config(n_total, n_nodes)


_SORTERS: dict[str, _Sorter] = {
    "dsort": _Sorter(run_dsort, default_dsort_config,
                     _phases("sampling", "pass1", "pass2"), True),
    "dsort-linear": _Sorter(run_dsort_linear, default_dsort_config,
                            _phases("sampling", "pass1", "pass2"), True),
    "csort": _Sorter(run_csort, _csort_config,
                     _phases("pass1", "pass2", "pass3"), True),
    "csort4": _Sorter(run_csort4, _csort_config,
                      lambda report: {f"pass{i + 1}": t for i, t
                                      in enumerate(report.pass_times)},
                      True),
    "nowsort": _Sorter(run_nowsort, default_dsort_config,
                       _phases("pass1", "pass2"), False),
}

#: every sorter :func:`run_sort` runs (``repro sort --sorter`` choices)
SORTERS = tuple(_SORTERS)


@dataclasses.dataclass
class SortRun:
    """Everything one experiment run produced."""

    sorter: str
    distribution: str
    record_bytes: int
    n_nodes: int
    n_per_node: int
    #: phase name -> seconds, in execution order (barrier-aligned, so all
    #: nodes agree; taken from rank 0)
    phase_times: dict[str, float]
    verified: bool
    #: max partition size over the average (dsort only; None for csort)
    partition_imbalance: Optional[float]
    bytes_io: int
    bytes_wire: int
    max_disk_busy: float
    #: observability capture (``run_sort(..., observe=True)``): the full
    #: execution trace and the kernel metrics registry, ready for
    #: :func:`repro.obs.write_chrome_trace` / ``write_metrics_json``
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    #: provenance capture (``run_sort(..., provenance=True)``): the
    #: run's :class:`~repro.prov.record.ProvenanceRecord`, replayable
    #: via :func:`repro.prov.replay` / ``python -m repro replay``
    provenance: Optional[object] = None

    @property
    def total_time(self) -> float:
        return sum(self.phase_times.values())

    @property
    def total_bytes(self) -> int:
        return self.record_bytes * self.n_per_node * self.n_nodes


def _apply_tune(config, tune: Optional[dict]):
    """Override config fields from a tuner-chosen dict (see run_sort)."""
    if not tune:
        return config
    known = {f.name for f in dataclasses.fields(config)}
    unknown = sorted(set(tune) - known)
    if unknown:
        raise ReproError(
            f"unknown tune field(s) {unknown} for "
            f"{type(config).__name__}; tunable fields: {sorted(known)}")
    overrides = dict(tune)
    if (isinstance(config, DsortConfig) and "block_records" in overrides
            and "vertical_block_records" not in overrides):
        overrides["vertical_block_records"] = max(
            1, overrides["block_records"] // 2)
    return dataclasses.replace(config, **overrides)


def run_sort(sorter: str, distribution: str, schema: RecordSchema,
             n_nodes: int = PAPER_NODES,
             n_per_node: int = BENCH_RECORDS_16B,
             hardware: Optional[HardwareModel] = None,
             block_records: Optional[int] = None,
             seed: int = 0, observe: bool = False,
             tune: Optional[dict] = None,
             plan: object = None,
             provenance: bool = False) -> SortRun:
    """Run one sorting experiment end to end and verify its output.

    ``observe=True`` attaches the execution tracer and a metrics registry
    to the run's kernel; the returned :class:`SortRun` then carries them
    (``.tracer`` / ``.metrics``) so callers can export a Chrome trace,
    dump a metrics snapshot, or run a bottleneck analysis — this is how
    the benchmark suite emits its trace artifacts.

    ``tune`` overrides fields of the sorter's default config by name
    (e.g. ``{"nbuffers": 6, "sort_replicas": 2}`` for either sorter,
    ``{"block_records": 2048}`` for dsort, ``{"s_override": 8}`` for
    csort) — the hook through which ``repro.tune`` applies a candidate
    configuration.  A dsort ``block_records`` override also rescales
    ``vertical_block_records`` to the default half-block unless that is
    overridden too; unknown field names raise, so tuners cannot silently
    search a no-op axis.

    ``plan`` applies a compiled execution plan
    (:class:`repro.plan.Plan`): its geometry overrides are layered
    under any explicit ``tune`` dict, and the plan is installed on the
    run's kernel so every program's structural fingerprint carries its
    digest from ``start()`` on — a planned run is its ``tune``
    equivalent plus that stamp.  Pass ``plan=True`` to compile one on
    the spot with :func:`repro.plan.plan_sort`.  The plan must
    match the run's sorter and shape.

    ``provenance=True`` (implies ``observe=True``) additionally captures
    a :class:`~repro.prov.record.ProvenanceRecord` on the returned run —
    args, seeds, stage-graph and code fingerprints, and sha256 digests
    of the output, metrics snapshot, and event trace — replayable
    byte-exactly via :func:`repro.prov.replay`.  Only the default
    benchmark hardware is recordable (the record stores no hardware
    model).
    """
    if sorter not in _SORTERS:
        raise ReproError(f"unknown sorter {sorter!r}; expected one of "
                         + ", ".join(map(repr, _SORTERS)))
    spec = _SORTERS[sorter]
    if provenance:
        if hardware is not None:
            raise ReproError(
                "run_sort(provenance=True) supports the default "
                "benchmark hardware only; a custom HardwareModel is not "
                "serialized into provenance records")
        observe = True
    hardware = hardware if hardware is not None else benchmark_hardware()
    n_total = n_nodes * n_per_node
    plan_obj = None
    if plan is not None and plan is not False:
        if plan is True:
            from repro.plan import plan_sort
            plan_obj = plan_sort(sorter, n_nodes, n_per_node,
                                 record_bytes=schema.record_bytes)
        else:
            plan_obj = plan
        mismatches = [
            f"{field} (plan {got!r}, run {want!r})"
            for field, got, want in [
                ("sorter", plan_obj.sorter, sorter),
                ("n_nodes", plan_obj.n_nodes, n_nodes),
                ("n_per_node", plan_obj.n_per_node, n_per_node),
                ("record_bytes", plan_obj.record_bytes,
                 schema.record_bytes)]
            if got != want]
        if mismatches:
            raise ReproError(
                "plan does not match this run: "
                + "; ".join(mismatches)
                + " — compile a plan for the shape being run")
    capture = None
    if observe:
        from repro.prov import observed_cluster
        cluster, capture = observed_cluster(n_nodes, capture=provenance,
                                            hardware=hardware)
    else:
        cluster = Cluster(n_nodes=n_nodes, hardware=hardware)
    kernel = cluster.kernel
    if plan_obj is not None:
        # every FGProgram.start() on this kernel is now stamped with
        # the plan; geometry overrides layer UNDER any explicit tune
        # dict so a tuner can still probe around the planned point
        plan_obj.install(kernel)
        tune = {**plan_obj.config, **(tune or {})}
    manifest = generate_input(cluster, schema, n_per_node, distribution,
                              seed=seed)
    config = _apply_tune(
        spec.default_config(n_total, n_nodes, block_records), tune)
    reports = cluster.run(spec.main, schema, config)
    imbalance: Optional[float] = None
    if hasattr(reports[0], "partition_records"):
        sizes = [r.partition_records for r in reports]
        imbalance = max(sizes) / (sum(sizes) / len(sizes))
    if spec.striped:
        verify_striped_output(cluster, manifest, config.output_file,
                              config.out_block_records)
    else:
        verify_partitioned_output(cluster, manifest, config.output_file)

    record = None
    if capture is not None:
        from repro.pdm.striped import StripedFile

        # a partitioned output has no one global byte order to digest
        out_sha = StripedFile(
            cluster, config.output_file, schema,
            config.out_block_records).sha256() if spec.striped else ""
        record = capture.record(
            "sort",
            {"sorter": sorter, "distribution": distribution,
             "record_bytes": schema.record_bytes, "n_nodes": n_nodes,
             "n_per_node": n_per_node, "block_records": block_records,
             "seed": seed, "tune": dict(tune) if tune else None,
             "plan": plan_obj.to_json() if plan_obj is not None else None},
            {"workload": seed, "config": getattr(config, "seed", None)},
            output=out_sha)

    return SortRun(sorter=sorter, distribution=distribution,
                   record_bytes=schema.record_bytes, n_nodes=n_nodes,
                   n_per_node=n_per_node,
                   phase_times=spec.phases(reports[0]),
                   verified=True, partition_imbalance=imbalance,
                   bytes_io=cluster.total_bytes_io(),
                   bytes_wire=cluster.total_bytes_sent(),
                   max_disk_busy=cluster.max_disk_busy(),
                   tracer=kernel.tracer, metrics=kernel.metrics,
                   provenance=record)
