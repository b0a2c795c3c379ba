"""Grid-searching the sorting benchmarks: the planner's oracle.

Two layers, both deterministic under the virtual-time kernel:

* :func:`dsort_space` / :func:`csort_space` build the search space for a
  given problem size: buffer-pool size and sort-stage replication for
  both sorts, plus each sort's *geometry* axis — dsort's pass-1 block
  size and csort's column count — because at disk-bound benchmark scale
  the geometry, not the pool, dominates the makespan.  The geometry
  ladders are the planner's own, so every plan is a grid point;
* :func:`tune_sort` evaluates every config of that space once, each a
  fresh verified cluster run via ``run_sort(tune=...)``.  The planner
  (:func:`repro.plan.plan_sort`) chooses geometry; this grid checks the
  choice, and ``repro tune`` reports the plan's gap to the optimum.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.tune.search import Axis, TuneResult, TuneSpace, grid_search

__all__ = ["TUNE_SPACES", "csort_space", "dsort_space", "record_best_run",
           "sort_evaluator", "tune_sort"]

#: pool sizes worth trying (the seed default is 4)
_NBUFFERS = (2, 3, 4, 6, 8)
#: sort-stage replica counts worth trying
_REPLICAS = (1, 2, 3, 4)


def dsort_space(n_nodes: int, n_per_node: int) -> TuneSpace:
    """Axes for dsort: pass-1 block size, pool size, sort replicas.

    The geometry ladder comes from the shared planner enumeration
    (:func:`repro.plan.dsort_block_candidates`), so tuner and planner
    search the same space by construction.
    """
    from repro.bench.harness import default_dsort_config
    from repro.plan.geometry import dsort_block_candidates

    n_total = n_nodes * n_per_node
    default = default_dsort_config(n_total, n_nodes)
    return TuneSpace([
        Axis("block_records", dsort_block_candidates(n_nodes, n_per_node),
             default=default.block_records),
        Axis("nbuffers", _NBUFFERS, default=default.nbuffers),
        Axis("sort_replicas", _REPLICAS, default=default.sort_replicas),
    ])


def csort_space(n_nodes: int, n_per_node: int) -> TuneSpace:
    """Axes for csort: column count, pool size, sort replicas.

    The legal column counts come from the shared planner enumeration
    (:func:`repro.plan.csort_s_candidates`).
    """
    from repro.bench.harness import default_csort_config
    from repro.plan.geometry import csort_s_candidates
    from repro.sorting.columnsort.steps import plan_columnsort

    n_total = n_nodes * n_per_node
    default = default_csort_config(n_total, n_nodes)
    plan = plan_columnsort(n_total, n_nodes)
    return TuneSpace([
        Axis("s_override", csort_s_candidates(n_nodes, n_per_node),
             default=plan.s),
        Axis("nbuffers", _NBUFFERS, default=default.nbuffers),
        Axis("sort_replicas", _REPLICAS, default=default.sort_replicas),
    ])


def _dsort_linear_space(n_nodes: int, n_per_node: int) -> TuneSpace:
    # the ablation runs one copy of its sort stage by definition
    # (run_dsort_linear refuses sort_replicas > 1): not an axis
    return TuneSpace([
        axis for axis in dsort_space(n_nodes, n_per_node).axes
        if axis.name != "sort_replicas"])


#: sorter -> ``(n_nodes, n_per_node) -> TuneSpace``; the sorters
#: ``repro tune --sorter`` offers are the harness's that have a row here
TUNE_SPACES = {"dsort": dsort_space,
               "dsort-linear": _dsort_linear_space,
               "csort": csort_space}


def _space_for(sorter: str, n_nodes: int, n_per_node: int) -> TuneSpace:
    if sorter not in TUNE_SPACES:
        raise ReproError(f"no tune space for sorter {sorter!r}; expected "
                         "one of " + ", ".join(map(repr, TUNE_SPACES)))
    return TUNE_SPACES[sorter](n_nodes, n_per_node)


def sort_evaluator(sorter: str, distribution: str = "uniform",
                   schema=None, n_nodes: int = 4, n_per_node: int = 4096,
                   seed: int = 0):
    """``evaluate(config) -> makespan`` running one fresh verified
    cluster per call."""
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema

    if schema is None:
        schema = RecordSchema.paper_16()

    def evaluate(config: dict) -> float:
        return run_sort(sorter, distribution, schema, n_nodes=n_nodes,
                        n_per_node=n_per_node, seed=seed,
                        tune=config).total_time

    return evaluate


def tune_sort(sorter: str, distribution: str = "uniform", schema=None,
              n_nodes: int = 4, n_per_node: int = 4096,
              seed: int = 0) -> TuneResult:
    """Grid-search one sorting benchmark's space; every config is one
    fresh verified cluster run, so the result is the exact optimum —
    the oracle :func:`repro.plan.plan_sort`'s choice is checked
    against (``result.score_of(plan.config)``)."""
    space = _space_for(sorter, n_nodes, n_per_node)
    return grid_search(sort_evaluator(sorter, distribution, schema,
                                      n_nodes=n_nodes,
                                      n_per_node=n_per_node, seed=seed),
                       space)


def record_best_run(sorter: str, best: dict, distribution: str = "uniform",
                    schema=None, n_nodes: int = 4, n_per_node: int = 4096,
                    seed: int = 0):
    """Re-run a tuner's winning config with provenance capture.

    Returns the :class:`~repro.prov.record.ProvenanceRecord` of one
    verified run of ``best`` — the replayable artifact a tuning session
    should publish next to its trial log, so "the tuned configuration is
    X% faster" stays a reproducible claim (``python -m repro tune
    --prov-out`` wires this up).
    """
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema

    if schema is None:
        schema = RecordSchema.paper_16()
    run = run_sort(sorter, distribution, schema, n_nodes=n_nodes,
                   n_per_node=n_per_node, seed=seed, tune=dict(best),
                   provenance=True)
    return run.provenance
