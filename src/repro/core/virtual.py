"""Structures for virtual stages, virtual pipelines, and pipeline families.

From the paper (Section IV): FG creates one thread per stage, including
sources and sinks, so k vertical pipelines would cost Θ(k) threads — and
"most current systems cannot handle hundreds of threads".  The fix:

* identical stages across pipelines may be designated **virtual**; FG
  creates one thread for the whole group and one shared queue feeding it;
* FG then *automatically* virtualizes the sources and sinks of the
  affected pipelines.

Here, a :class:`VirtualGroup` is the set of same-named virtual stages (one
per pipeline) sharing a thread and an input queue, and a :class:`Family`
is a connected component of pipelines linked by virtual groups: each
family gets exactly one source thread, one sink thread, one shared sink
queue, and one shared recycle channel — so k virtual pipelines cost O(1)
threads regardless of k.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.core.pipeline import Pipeline
from repro.core.stage import Stage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import StageContext
    from repro.sim.channel import Channel

__all__ = ["VirtualGroup", "Family", "Stop"]


class Stop:
    """Recycle-channel token: sink tells source that a pipeline finished."""

    __slots__ = ("pipeline",)

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stop {self.pipeline.name}>"


@dataclasses.dataclass
class VirtualGroup:
    """All virtual stages sharing one group key (one member per pipeline)."""

    key: str
    #: (pipeline, stage) pairs in registration order
    members: list[tuple[Pipeline, Stage]] = dataclasses.field(
        default_factory=list)
    shared_queue: Optional["Channel"] = None
    #: per-member contexts, keyed by id(pipeline)
    contexts: dict[int, "StageContext"] = dataclasses.field(
        default_factory=dict)

    @property
    def pipelines(self) -> list[Pipeline]:
        return [p for p, _ in self.members]

    def member_stage(self, pipeline_id: int) -> Stage:
        for p, s in self.members:
            if id(p) == pipeline_id:
                return s
        raise KeyError(pipeline_id)


@dataclasses.dataclass(slots=True)
class Family:
    """A connected set of pipelines sharing virtualized plumbing: those
    the virtual groups link (``virtual``, labelled ``family<i>``), or one
    pipeline with no virtual stage, labelled by its own name — so one
    source loop and one sink loop serve every pipeline."""

    #: names the family's processes and channels
    label: str
    virtual: bool
    pipelines: list[Pipeline] = dataclasses.field(default_factory=list)
    sink_queue: Optional["Channel"] = None
    recycle: Optional["Channel"] = None
