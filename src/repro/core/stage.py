"""FG stages: the programmer-defined units of pipeline work.

Two authoring styles, both plain synchronous Python (the paper: "the
programmer writes a straightforward function containing only synchronous
calls"):

* **map style** (:meth:`Stage.map`) — a function ``fn(ctx, buffer)`` called
  once per data buffer; FG runs the accept/convey loop, forwards the
  caboose, and exits.  This covers read/sort/permute/write-type stages and
  is the only style allowed for *virtual* stages.

* **full-control style** (:meth:`Stage.source_driven`) — a function
  ``fn(ctx)`` that owns its accept/convey loop.  Required for stages with
  irregular consumption patterns: unbalanced communication stages and the
  merge stage of intersecting pipelines.

A single :class:`Stage` object placed in several pipelines makes those
pipelines **intersect** at it: FG creates one thread for the stage, and the
stage must name the pipeline it accepts from (paper, Section IV).

A stage constructed with ``virtual=True`` joins the **virtual group** named
by ``virtual_group`` (default: the stage's name): all stages of a group
share one thread and one input queue, and FG automatically virtualizes the
sources and sinks of their pipelines.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from repro.errors import PipelineStructureError

__all__ = ["Stage", "StageStats"]


@dataclasses.dataclass
class StageStats:
    """Per-stage timing and throughput counters (kernel seconds).

    Updated exclusively through the program's
    :class:`~repro.obs.observer.ProgramObserver` — the single event path
    that also mirrors every stage event into the kernel's metrics registry
    when one is enabled (``kernel.enable_metrics()``).
    """

    accepts: int = 0
    conveys: int = 0
    accept_wait: float = 0.0   #: time spent blocked waiting for buffers
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def span(self) -> float:
        """Wall-span of the stage from start to finish."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def busy(self) -> float:
        """Span minus accept-wait: an upper bound on useful work time."""
        return max(0.0, self.span - self.accept_wait)


class Stage:
    """One pipeline stage.  Construct via :meth:`map` or :meth:`source_driven`."""

    def __init__(self, name: str, fn: Callable[..., Any], *, style: str,
                 virtual: bool = False,
                 virtual_group: Optional[str] = None) -> None:
        if style not in ("map", "full"):
            raise PipelineStructureError(f"unknown stage style {style!r}")
        if virtual and style != "map":
            raise PipelineStructureError(
                f"virtual stage {name!r} must be map-style (shared-thread "
                "dispatch calls the function once per buffer)")
        self.name = name
        self.fn = fn
        self.style = style
        self.virtual = virtual
        self.virtual_group = (virtual_group if virtual_group is not None
                              else name) if virtual else None
        self.stats = StageStats()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def map(cls, name: str, fn: Callable[..., Any], *, virtual: bool = False,
            virtual_group: Optional[str] = None) -> "Stage":
        """A per-buffer stage: ``fn(ctx, buffer) -> buffer | None``.

        FG accepts each buffer, calls ``fn``, and conveys the returned
        buffer (return ``None`` to drop it — e.g. a filter).  The caboose
        is forwarded automatically and ends the stage.
        """
        return cls(name, fn, style="map", virtual=virtual,
                   virtual_group=virtual_group)

    @classmethod
    def source_driven(cls, name: str, fn: Callable[..., Any]) -> "Stage":
        """A full-control stage: ``fn(ctx)`` owns its accept/convey loop."""
        return cls(name, fn, style="full")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "virtual " if self.virtual else ""
        return f"<{kind}Stage {self.name} ({self.style})>"
