"""Auto-tuning the sorting benchmarks: spaces, offline and adaptive tuners.

Three layers, all deterministic under the virtual-time kernel:

* :func:`dsort_space` / :func:`csort_space` build the search space for a
  given problem size: buffer-pool size and sort-stage replication for
  both sorts, plus each sort's *geometry* axis — dsort's pass-1 block
  size and csort's column count — because at disk-bound benchmark scale
  the geometry, not the pool, dominates the makespan;
* :func:`tune_sort` runs the offline search (hill climb by default,
  exhaustive grid on request): every candidate config is one fresh
  verified cluster run via ``run_sort(tune=...)``;
* :func:`adaptive_tune_sort` is the feedback scheduler: instead of
  searching blindly it runs the current config *instrumented*, reads the
  same signals the in-run :class:`~repro.tune.controller.TuneController`
  uses (disk-busy share, sort-stage inbound backlog, buffer-pool
  pressure), and tries the axis those signals implicate first, keeping
  every improvement.  It typically reaches within a few percent of the
  offline optimum in a fraction of the evaluations.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError
from repro.tune.search import (
    Axis,
    TuneResult,
    TuneSpace,
    _Scored,
    grid_search,
    hill_climb,
)

__all__ = ["AdaptiveResult", "TUNE_SPACES", "adaptive_tune_sort",
           "csort_space", "dsort_space", "record_best_run",
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
                   seed: int = 0, observe: bool = False):
    """``evaluate(config) -> makespan`` running one fresh verified
    cluster per call.  With ``observe=True`` the callable also keeps its
    last :class:`~repro.bench.harness.SortRun` on ``evaluate.last_run``
    (the adaptive tuner reads its metrics)."""
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema

    if schema is None:
        schema = RecordSchema.paper_16()

    def evaluate(config: dict) -> float:
        run = run_sort(sorter, distribution, schema, n_nodes=n_nodes,
                       n_per_node=n_per_node, seed=seed, observe=observe,
                       tune=config)
        evaluate.last_run = run
        return run.total_time

    evaluate.last_run = None
    return evaluate


def _warm_start_config(space: TuneSpace, plan) -> dict:
    """Snap a plan's config onto the space's axes (nearest legal value
    per axis; axes the plan does not set keep their default)."""
    config = space.default_config()
    for axis in space.axes:
        if axis.name not in plan.config:
            continue
        want = plan.config[axis.name]
        config[axis.name] = min(
            axis.values, key=lambda v: (abs(v - want), v))
    return config


def tune_sort(sorter: str, distribution: str = "uniform", schema=None,
              n_nodes: int = 4, n_per_node: int = 4096, seed: int = 0,
              method: str = "hill", warm_start=None) -> TuneResult:
    """Offline-tune one sorting benchmark; returns the search result.

    ``method`` is ``"hill"`` (deterministic coordinate descent, the
    default) or ``"grid"`` (exhaustive; exact but much slower).

    ``warm_start`` seeds the hill climb at a compiled plan's config
    instead of the hand-tuned default: pass a
    :class:`repro.plan.Plan`, or ``True`` to compile one on the spot.
    When the planner's analytic optimum is at or near the true optimum
    the climb converges in a fraction of the evaluations.
    """
    space = _space_for(sorter, n_nodes, n_per_node)
    evaluate = sort_evaluator(sorter, distribution, schema,
                              n_nodes=n_nodes, n_per_node=n_per_node,
                              seed=seed)
    start = None
    if warm_start is not None and warm_start is not False:
        if warm_start is True:
            from repro.plan import plan_sort
            from repro.pdm.records import RecordSchema

            record_bytes = (schema.record_bytes if schema is not None
                            else RecordSchema.paper_16().record_bytes)
            warm_start = plan_sort(sorter, n_nodes, n_per_node,
                                   record_bytes=record_bytes)
        start = _warm_start_config(space, warm_start)
    if method == "hill":
        return hill_climb(evaluate, space, start=start)
    if method == "grid":
        return grid_search(evaluate, space)
    raise ReproError(f"unknown tune method {method!r}; "
                     "expected 'hill' or 'grid'")


# -- adaptive feedback scheduler -------------------------------------------


@dataclasses.dataclass
class AdaptiveResult(_Scored):
    """Outcome of one adaptive tuning session."""

    #: every run: (config, score, the axis priorities that drove it)
    history: list[tuple[dict, float, dict]]

    def to_json(self) -> dict:
        return {**self._summary("adaptive"),
                "history": [{"config": dict(sorted(c.items())), "score": s,
                             "signals": dict(sorted(d.items()))}
                            for c, s, d in self.history]}


def _diagnose(run, geometry_axis: str) -> dict:
    """Axis name -> priority, from one instrumented run's signals.

    The same evidence model as :class:`BacklogPolicy`, read from run-wide
    aggregates instead of windows: disk-bound time implicates the
    geometry axis (change how much each disk op moves), backlog queued in
    front of the sort stage implicates replication, and a pool whose
    buffers averaged near all-in-flight implicates the pool size.
    """
    priorities = {geometry_axis: 0.0, "sort_replicas": 0.0,
                  "nbuffers": 0.0}
    if run.total_time > 0:
        priorities[geometry_axis] = run.max_disk_busy / run.total_time
    if run.metrics is None:
        return priorities
    backlog = []
    pressure = []
    for metric in run.metrics:
        name = metric.name
        if name.startswith("channel.") and name.endswith("->sort.occupancy"):
            backlog.append(metric.time_average())
        elif name.endswith(".buffers_in_flight") and metric.max > 0:
            pressure.append(metric.time_average() / metric.max)
    if backlog:
        priorities["sort_replicas"] = min(
            1.0, sum(backlog) / len(backlog) / 2.0)
    if pressure:
        priorities["nbuffers"] = max(pressure)
    return priorities


def adaptive_tune_sort(sorter: str, distribution: str = "uniform",
                       schema=None, n_nodes: int = 4,
                       n_per_node: int = 4096, seed: int = 0,
                       max_runs: int = 16) -> AdaptiveResult:
    """Feedback-tune one sorting benchmark, run by run.

    Each round runs the incumbent config instrumented, turns its signals
    into axis priorities (:func:`_diagnose`), and probes one step each
    way along the highest-priority axis that still has an untried
    improving move; improvements are kept immediately.  Stops when no
    axis yields an improvement or after ``max_runs`` cluster runs.
    """
    space = _space_for(sorter, n_nodes, n_per_node)
    geometry_axis = space.axes[0].name
    evaluate = sort_evaluator(sorter, distribution, schema,
                              n_nodes=n_nodes, n_per_node=n_per_node,
                              seed=seed, observe=True)
    scores: dict[tuple, float] = {}
    runs_by_key: dict[tuple, object] = {}
    history: list[tuple[dict, float, dict]] = []
    runs = 0

    def score_of(config: dict) -> float:
        nonlocal runs
        key = tuple(sorted(config.items()))
        if key not in scores:
            scores[key] = evaluate(config)
            runs_by_key[key] = evaluate.last_run
            runs += 1
        return scores[key]

    def run_of(config: dict):
        return runs_by_key[tuple(sorted(config.items()))]

    current = space.default_config()
    current_score = score_of(current)
    baseline, baseline_score = dict(current), current_score
    diagnosis = _diagnose(run_of(current), geometry_axis)
    history.append((dict(current), current_score, dict(diagnosis)))
    axes_by_name = {a.name: a for a in space.axes}

    improved = True
    while improved and runs < max_runs:
        improved = False
        ordered = sorted(axes_by_name, key=lambda n: (-diagnosis[n], n))
        for name in ordered:
            axis = axes_by_name[name]
            i = axis.index_of(current[name])
            steps = [j for j in (i - 1, i + 1)
                     if 0 <= j < len(axis.values)]
            best_move, best_move_score = None, current_score
            for j in steps:
                if runs >= max_runs:
                    break
                candidate = dict(current, **{name: axis.values[j]})
                score = score_of(candidate)
                if score < best_move_score:
                    best_move, best_move_score = candidate, score
            if best_move is not None:
                current, current_score = best_move, best_move_score
                diagnosis = _diagnose(run_of(current), geometry_axis)
                history.append((dict(current), current_score,
                                dict(diagnosis)))
                improved = True
                break  # re-prioritize from the new config's signals
    return AdaptiveResult(best=current, best_score=current_score,
                          baseline=baseline,
                          baseline_score=baseline_score,
                          history=history, evaluations=runs)


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
