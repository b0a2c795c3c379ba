"""repro.tune: auto-tuning for FG programs.

FG's performance knobs — buffers per pool, copies per stage, how much
each pipeline round moves — have always been hand-tuned.  This package
searches them before the run, deterministically under the virtual-time
kernel; a program's pools and replica counts are then fixed for the run:

* :mod:`repro.tune.search` — **offline search**: the exhaustive grid
  over a :class:`TuneSpace` of axes, each evaluation one fresh simulated
  run;
* :mod:`repro.tune.sorters` — the grid applied to the paper's sorting
  benchmarks, where it is the oracle for the planner's geometry.

Surfaced as ``python -m repro tune``, which also reports the compiled
plan's gap to the grid optimum; the guide is docs/TUNING.md.
"""

from repro.tune.search import (
    Axis,
    Trial,
    TuneResult,
    TuneSpace,
    grid_search,
)
from repro.tune.sorters import (
    csort_space,
    dsort_space,
    record_best_run,
    sort_evaluator,
    tune_sort,
)

__all__ = [
    "Axis",
    "TuneSpace",
    "Trial",
    "TuneResult",
    "grid_search",
    "dsort_space",
    "csort_space",
    "sort_evaluator",
    "tune_sort",
    "record_best_run",
]
