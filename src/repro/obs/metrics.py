"""Metrics registry: counters, gauges, and time-weighted histograms.

A :class:`MetricsRegistry` is bound to a clock — in practice a kernel's
``now`` method — so every recorded value is stamped in **kernel time**.
Under the virtual-time kernel that makes metrics exact consequences of the
cost model (two runs produce identical snapshots); under the real-time
kernel the same code records wall-clock metrics.  Nothing in this module
imports the kernels, so ``repro.sim`` can depend on it lazily without an
import cycle.

Three instrument kinds:

* :class:`Counter` — monotonically increasing total (accepts, conveys,
  items delivered, bytes moved);
* :class:`Gauge` — instantaneous level (queue occupancy, buffers in
  flight) with **time-weighted** aggregation: the integral of the value
  over kernel time yields :meth:`Gauge.time_average`, and an optional
  embedded histogram records how long the gauge spent at each level;
* :class:`Histogram` — weighted distribution over fixed bucket bounds;
  the weight defaults to 1 per observation but callers may pass elapsed
  seconds, making it time-weighted.

Instruments are get-or-create by dotted name::

    registry = kernel.enable_metrics()
    registry.counter("stage.read.accepts").inc()
    registry.gauge("channel.p->read.occupancy").set(3)
    registry.snapshot()   # JSON-able dict of everything

A counter or gauge created with ``record_samples=True`` declares that its
``(time, value)`` series is worth drawing; the registry keeps it only
while :attr:`MetricsRegistry.record_samples` is set.  A bare registry
keeps every declared series; :func:`repro.prov.observed_cluster` sets the
flag to its ``trace`` argument, so an untraced observed run — which no
Chrome export or stage series will read — keeps none.  Snapshots never
include samples, so the flag cannot move a metrics digest.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: default bucket bounds for gauge level distributions (queue depths)
DEFAULT_LEVEL_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class Metric:
    """Base: a named instrument bound to a registry clock."""

    kind = "metric"
    __slots__ = ("name", "unit", "help", "_clock")

    def __init__(self, name: str, clock: Callable[[], float],
                 unit: str = "", help: str = ""):
        self.name = name
        self.unit = unit
        self.help = help
        self._clock = clock

    def snapshot(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotonically increasing total.

    ``record_samples=True`` keeps the ``(time, cumulative_value)`` series
    of every increment (when the registry keeps series, see
    :attr:`MetricsRegistry.record_samples`), which is what turns an
    aggregate counter into a time series: :meth:`value_at` reads the cumulative value at any past
    instant and :meth:`window_delta` the growth over a window (the
    per-stage series of :mod:`repro.obs.timeseries` are built on this).
    """

    kind = "counter"
    __slots__ = ("value", "samples")

    def __init__(self, name: str, clock: Callable[[], float],
                 unit: str = "", help: str = "",
                 record_samples: bool = False):
        super().__init__(name, clock, unit, help)
        self.value: float = 0.0
        self.samples: Optional[list[tuple[float, float]]] = (
            [] if record_samples else None)

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:  # also refuses NaN
            raise ValueError(f"counter {self.name!r} increment must be "
                             f">= 0, got {amount}")
        self.value += amount
        if self.samples is not None:
            self.samples.append((self._clock(), self.value))

    def value_at(self, t: float) -> float:
        """Cumulative value at instant ``t`` (needs record_samples)."""
        if self.samples is None:
            raise ValueError(f"counter {self.name!r} records no samples")
        value = 0.0
        for st, sv in self.samples:
            if st > t:
                break
            value = sv
        return value

    def window_delta(self, t0: float, t1: float) -> float:
        """Growth of the counter over ``[t0, t1]`` (needs record_samples)."""
        return self.value_at(t1) - self.value_at(t0)

    def snapshot(self) -> dict:
        out: dict = {"value": self.value}
        if self.unit:
            out["unit"] = self.unit
        return out


class Gauge(Metric):
    """An instantaneous level with time-weighted aggregation.

    The gauge integrates its value over kernel time, so
    :meth:`time_average` is exact regardless of how irregularly the level
    changes — one second spent at occupancy 4 weighs the same as four
    one-second visits to occupancy 1.

    ``record_samples=True`` keeps the full ``(time, value)`` step series
    when the registry keeps series (the Chrome-trace exporter draws it as
    a counter track);
    ``level_bounds`` additionally maintains a time-weighted histogram of
    the levels the gauge held.
    """

    kind = "gauge"
    __slots__ = ("value", "max", "min", "_t0", "_last_change", "_integral",
                 "samples", "_levels")

    def __init__(self, name: str, clock: Callable[[], float],
                 unit: str = "", help: str = "",
                 record_samples: bool = False,
                 level_bounds: Optional[Sequence[float]] = None):
        super().__init__(name, clock, unit, help)
        self.value: float = 0.0
        self.max: float = 0.0
        self.min: float = 0.0
        self._t0 = clock()
        self._last_change = self._t0
        self._integral = 0.0
        self.samples: Optional[list[tuple[float, float]]] = (
            [] if record_samples else None)
        self._levels: Optional[Histogram] = (
            Histogram(f"{name}.levels", clock, bounds=level_bounds)
            if level_bounds is not None else None)

    def set(self, value: float) -> None:
        if value == self.value:
            return
        now = self._clock()
        elapsed = now - self._last_change
        self._integral += self.value * elapsed
        if self._levels is not None and elapsed > 0:
            self._levels.observe(self.value, weight=elapsed)
        self.value = value
        self._last_change = now
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        if self.samples is not None:
            self.samples.append((now, value))

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def time_average(self, now: Optional[float] = None) -> float:
        """Integral of the value over time divided by elapsed time."""
        now = self._clock() if now is None else now
        elapsed = now - self._t0
        if elapsed <= 0:
            return self.value
        integral = self._integral + self.value * (now - self._last_change)
        return integral / elapsed

    def snapshot(self) -> dict:
        out: dict = {
            "value": self.value,
            "time_average": self.time_average(),
            "max": self.max,
            "min": self.min,
        }
        if self.unit:
            out["unit"] = self.unit
        if self._levels is not None:
            out["levels"] = self._levels.snapshot()
        return out


class Histogram(Metric):
    """A weighted distribution over fixed bucket bounds.

    ``observe(value)`` adds weight 1 to the bucket of ``value``; passing
    ``weight=elapsed_seconds`` makes the histogram time-weighted (how long
    was the queue at depth d?).  Bucket i counts values ``<= bounds[i]``;
    one overflow bucket catches the rest.
    """

    kind = "histogram"
    __slots__ = ("bounds", "weights", "count", "total_weight",
                 "weighted_sum", "min", "max")

    def __init__(self, name: str, clock: Callable[[], float],
                 unit: str = "", help: str = "",
                 bounds: Optional[Sequence[float]] = None):
        super().__init__(name, clock, unit, help)
        self.bounds: tuple[float, ...] = tuple(
            bounds if bounds is not None else DEFAULT_LEVEL_BOUNDS)
        if (list(self.bounds) != sorted(self.bounds)
                or any(b != b for b in self.bounds)):
            raise ValueError(f"histogram bounds must ascend: {self.bounds}")
        self.weights: list[float] = [0.0] * (len(self.bounds) + 1)
        self.count = 0
        self.total_weight = 0.0
        self.weighted_sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, weight: float = 1.0) -> None:
        if not weight >= 0:  # also refuses NaN
            raise ValueError(f"histogram {self.name!r} weight must be "
                             f">= 0, got {weight}")
        # the first bound >= value; NaN is <= no bound, so it overflows
        idx = (bisect_left(self.bounds, value) if value == value
               else len(self.bounds))
        self.weights[idx] += weight
        self.count += 1
        self.total_weight += weight
        self.weighted_sum += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        """Weighted mean of observed values (0 when empty)."""
        if self.total_weight <= 0:
            return 0.0
        return self.weighted_sum / self.total_weight

    def snapshot(self) -> dict:
        out: dict = {
            "bounds": list(self.bounds),
            "weights": list(self.weights),
            "count": self.count,
            "total_weight": self.total_weight,
            "mean": self.mean(),
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        if self.unit:
            out["unit"] = self.unit
        return out


class MetricsRegistry:
    """Get-or-create registry of named instruments on one clock."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        #: whether instruments that declare ``record_samples=True`` keep
        #: their series; set once, before any instrument is created
        self.record_samples = True
        self._metrics: dict[str, Metric] = {}

    # -- instrument factories (get-or-create) ------------------------------

    def _get_or_create(self, cls: type, name: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}")
            return metric
        metric = cls(name, self.clock, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: str = "", help: str = "",
                record_samples: bool = False) -> Counter:
        record_samples = record_samples and self.record_samples
        counter = self._get_or_create(Counter, name, unit=unit, help=help,
                                      record_samples=record_samples)
        # an already-registered aggregate counter can be upgraded to a
        # sampled one (get-or-create must not silently drop the request)
        if record_samples and counter.samples is None:
            counter.samples = []
        return counter

    def gauge(self, name: str, unit: str = "", help: str = "",
              record_samples: bool = False,
              level_bounds: Optional[Sequence[float]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, unit=unit, help=help,
                                   record_samples=(record_samples
                                                   and self.record_samples),
                                   level_bounds=level_bounds)

    def histogram(self, name: str, unit: str = "", help: str = "",
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, unit=unit, help=help,
                                   bounds=bounds)

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able snapshot of every instrument, grouped by kind."""
        groups: dict[str, dict] = {"counters": {}, "gauges": {},
                                   "histograms": {}}
        for name in self.names():
            metric = self._metrics[name]
            groups[metric.kind + "s"][name] = metric.snapshot()
        return {"captured_at": self.clock(), **groups}
