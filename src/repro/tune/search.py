"""Deterministic offline configuration search: grid and hill climb.

The simulated clock makes configuration search *exact*: evaluating a
candidate config runs a fresh virtual-time cluster, and the same config
always scores the same makespan, byte for byte.  So the search needs no
repetitions, no noise handling, and no randomness — a plain coordinate-
descent hill climb with a deterministic tie-break and an evaluation
cache, or an exhaustive grid when the space is small.

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
from typing import Callable, Optional, Sequence

from repro.errors import ReproError

__all__ = ["Axis", "Trial", "TuneResult", "TuneSpace", "grid_search",
           "hill_climb"]

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

    def index_of(self, value) -> int:
        return self.values.index(value)


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

    def size(self) -> int:
        n = 1
        for a in self.axes:
            n *= len(a.values)
        return n

    def grid(self) -> list[dict]:
        """Every config, in lexicographic axis order (deterministic)."""
        configs = [{}]
        for axis in self.axes:
            configs = [dict(c, **{axis.name: v})
                       for c in configs for v in axis.values]
        return configs

    def neighbors(self, config: dict) -> list[dict]:
        """Configs one step along one axis (coordinate moves), in axis
        order, minus-step before plus-step — a fixed order so the climb
        is deterministic."""
        out = []
        for axis in self.axes:
            i = axis.index_of(config[axis.name])
            for j in (i - 1, i + 1):
                if 0 <= j < len(axis.values):
                    out.append(dict(config, **{axis.name: axis.values[j]}))
        return out


@dataclasses.dataclass(frozen=True)
class Trial:
    """One evaluated config (``cached`` marks a cache hit, not a run)."""

    config: dict
    score: float
    cached: bool = False


@dataclasses.dataclass
class _Scored:
    """What every search outcome knows: best vs baseline."""

    best: dict
    best_score: float
    baseline: dict
    baseline_score: float
    evaluations: int      #: actual evaluator calls (cache misses)

    @property
    def improvement(self) -> float:
        """Fractional makespan reduction vs the baseline config."""
        if self.baseline_score <= 0:
            return 0.0
        return 1.0 - self.best_score / self.baseline_score

    def _summary(self, method: str) -> dict:
        """The keys every result document starts with, in order."""
        return {
            "method": method,
            "best": dict(sorted(self.best.items())),
            "best_score": self.best_score,
            "baseline": dict(sorted(self.baseline.items())),
            "baseline_score": self.baseline_score,
            "improvement": self.improvement,
            "evaluations": self.evaluations,
        }


@dataclasses.dataclass
class TuneResult(_Scored):
    """Outcome of one search."""

    method: str
    trials: list[Trial]

    def to_json(self) -> dict:
        """A JSON-able document with deterministic key order."""
        return {**self._summary(self.method),
                "trials": [{"config": dict(sorted(t.config.items())),
                            "score": t.score} for t in self.trials
                           if not t.cached]}


def _key(config: dict) -> tuple:
    return tuple(sorted(config.items()))


class _CachedEvaluator:
    """Memoizes the evaluator and logs every lookup as a Trial."""

    def __init__(self, evaluate: Evaluator):
        self._evaluate = evaluate
        self._cache: dict[tuple, float] = {}
        self.trials: list[Trial] = []
        self.evaluations = 0

    def __call__(self, config: dict) -> float:
        key = _key(config)
        hit = key in self._cache
        if not hit:
            self._cache[key] = self._evaluate(config)
            self.evaluations += 1
        score = self._cache[key]
        self.trials.append(Trial(dict(config), score, cached=hit))
        return score


def grid_search(evaluate: Evaluator, space: TuneSpace) -> TuneResult:
    """Evaluate every config; exact but exponential in axis count."""
    cached = _CachedEvaluator(evaluate)
    baseline = space.default_config()
    baseline_score = cached(baseline)
    best, best_score = baseline, baseline_score
    for config in space.grid():
        score = cached(config)
        if score < best_score:
            best, best_score = config, score
    return TuneResult(method="grid", best=best, best_score=best_score,
                      baseline=baseline, baseline_score=baseline_score,
                      trials=cached.trials, evaluations=cached.evaluations)


def hill_climb(evaluate: Evaluator, space: TuneSpace,
               start: Optional[dict] = None,
               max_steps: int = 64) -> TuneResult:
    """Deterministic coordinate-descent from the default config.

    Each step evaluates every one-axis neighbor of the incumbent and
    moves to the best strictly-improving one (first in neighbor order on
    ties); stops at a local optimum or after ``max_steps`` moves.  With
    a deterministic evaluator this needs no restarts to be reproducible
    — though like any local search it can stop short of the global
    optimum on non-convex landscapes (use :func:`grid_search` to check,
    when the space is small enough).
    """
    cached = _CachedEvaluator(evaluate)
    baseline = space.default_config()
    baseline_score = cached(baseline)
    current = dict(start) if start is not None else dict(baseline)
    if start is not None:
        unknown = sorted(set(current) - {a.name for a in space.axes})
        if unknown:
            raise ReproError(f"start config has non-axis key(s): {unknown}")
    current_score = cached(current)
    for _ in range(max_steps):
        best_move, best_move_score = None, current_score
        for candidate in space.neighbors(current):
            score = cached(candidate)
            if score < best_move_score:
                best_move, best_move_score = candidate, score
        if best_move is None:
            break
        current, current_score = best_move, best_move_score
    return TuneResult(method="hill", best=current, best_score=current_score,
                      baseline=baseline, baseline_score=baseline_score,
                      trials=cached.trials, evaluations=cached.evaluations)
