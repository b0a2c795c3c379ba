"""Deterministic offline configuration search: the exhaustive grid.

The simulated clock makes configuration search *exact*: evaluating a
candidate config runs a fresh virtual-time cluster, and the same config
always scores the same makespan, byte for byte.  So the search needs no
repetitions, no noise handling, and no randomness — and since the spaces
are small (a few axes of a few values each), it needs no heuristic
either: the grid evaluates every config once and is the optimum by
construction.  That makes it the oracle the planner (:mod:`repro.plan`)
is checked against.

Vocabulary:

* an :class:`Axis` is one tunable knob with an ordered tuple of candidate
  values and a default (the hand-tuned starting point);
* a :class:`TuneSpace` is a list of axes; a *config* is a plain dict
  mapping axis names to chosen values (exactly what
  ``run_sort(tune=...)`` accepts);
* ``evaluate(config) -> float`` scores a config, lower is better
  (makespan in kernel seconds);
* a :class:`TuneResult` carries the best config, its score, the baseline
  (all-defaults) score, and the full trial log — everything ``repro
  tune`` serializes to JSON.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.errors import ReproError

__all__ = ["Axis", "Trial", "TuneResult", "TuneSpace", "grid_search"]

Evaluator = Callable[[dict], float]


@dataclasses.dataclass(frozen=True)
class Axis:
    """One tunable knob: ordered candidate values plus the default."""

    name: str
    values: tuple
    default: object = None

    def __post_init__(self):
        if not self.values:
            raise ReproError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ReproError(f"axis {self.name!r} has duplicate values")
        if self.default is None:
            object.__setattr__(self, "default", self.values[0])
        if self.default not in self.values:
            raise ReproError(
                f"axis {self.name!r}: default {self.default!r} is not "
                f"among its values {self.values}")


class TuneSpace:
    """An ordered set of axes; iteration order is the search order."""

    def __init__(self, axes: Sequence[Axis]):
        if not axes:
            raise ReproError("tune space has no axes")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate axis names: {names}")
        self.axes = list(axes)

    def default_config(self) -> dict:
        return {a.name: a.default for a in self.axes}

    def grid(self) -> list[dict]:
        """Every config, in lexicographic axis order (deterministic)."""
        configs = [{}]
        for axis in self.axes:
            configs = [dict(c, **{axis.name: v})
                       for c in configs for v in axis.values]
        return configs


@dataclasses.dataclass(frozen=True)
class Trial:
    """One evaluated config."""

    config: dict
    score: float


@dataclasses.dataclass
class TuneResult:
    """Outcome of one search: best vs baseline, and every trial."""

    best: dict
    best_score: float
    baseline: dict
    baseline_score: float
    trials: list[Trial]

    @property
    def evaluations(self) -> int:
        """Evaluator calls made: one per trial."""
        return len(self.trials)

    @property
    def improvement(self) -> float:
        """Fractional makespan reduction vs the baseline config."""
        if self.baseline_score <= 0:
            return 0.0
        return 1.0 - self.best_score / self.baseline_score

    def score_of(self, config: dict) -> float:
        """The score the search recorded for ``config`` — a lookup in
        the trial log, never a new run."""
        for trial in self.trials:
            if trial.config == config:
                return trial.score
        raise ReproError(f"config {dict(sorted(config.items()))} was not "
                         "evaluated by this search")

    def to_json(self) -> dict:
        """A JSON-able document with deterministic key order."""
        return {
            "best": dict(sorted(self.best.items())),
            "best_score": self.best_score,
            "baseline": dict(sorted(self.baseline.items())),
            "baseline_score": self.baseline_score,
            "improvement": self.improvement,
            "evaluations": self.evaluations,
            "trials": [{"config": dict(sorted(t.config.items())),
                        "score": t.score} for t in self.trials],
        }


def grid_search(evaluate: Evaluator, space: TuneSpace) -> TuneResult:
    """Evaluate every config once, in :meth:`TuneSpace.grid` order;
    exact but exponential in axis count.

    The baseline (all defaults) is a grid point, since every axis's
    default is among its values.  It wins ties: a later config replaces
    the incumbent only when it scores strictly lower, so a space whose
    default is optimal reports an improvement of exactly 0.
    """
    trials = [Trial(config, evaluate(config)) for config in space.grid()]
    baseline = space.default_config()
    baseline_score = next(t.score for t in trials if t.config == baseline)
    best, best_score = baseline, baseline_score
    for trial in trials:
        if trial.score < best_score:
            best, best_score = trial.config, trial.score
    return TuneResult(best=best, best_score=best_score, baseline=baseline,
                      baseline_score=baseline_score, trials=trials)
