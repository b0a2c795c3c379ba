"""FG pipelines: an ordered chain of stages plus a buffer pool.

A :class:`Pipeline` is pure structure — stages, pool geometry, and the
round count.  All queues, buffers, and threads are materialized by
:class:`~repro.core.program.FGProgram` at assembly time, so the same
pipeline description could be assembled repeatedly (one per pass).

``rounds`` semantics:

* ``rounds=N`` — the source emits exactly N buffers and then the caboose.
  Used when the number of blocks is known in advance (every csort pass,
  dsort's read pipelines).
* ``rounds=None`` — the source emits recycled buffers indefinitely and
  some stage declares end-of-stream with
  :meth:`~repro.core.context.StageContext.convey_caboose` (dsort's receive
  pipelines, whose length depends on what other nodes send).  The sink
  then tells the source to stop.

``replicas`` declares **replicated stages**: mapping a stage name to
N >= 1 makes the program run N interchangeable copies of that stage, all
consuming from the shared inbound channel, with a sequencer process
restoring buffer order downstream.  The count is fixed before the run
(``repro tune`` and the planner choose it as ``sort_replicas``);
``replicas={'sort': 1}`` still wires the sequencer.  Replicated stages must be map-style, non-virtual, single-pipeline, and
stateless across rounds (lint rule FG109 checks the last point).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.stage import Stage
from repro.errors import PipelineStructureError

__all__ = ["Pipeline"]


class Pipeline:
    """Description of one pipeline (no runtime state)."""

    def __init__(self, name: str, stages: Sequence[Stage], *,
                 nbuffers: int, buffer_bytes: int,
                 rounds: Optional[int] = None,
                 aux_buffers: bool = False,
                 channel_capacity: Optional[int] = None,
                 replicas: Optional[Mapping[str, int]] = None,
                 role: Optional[str] = None) -> None:
        if not stages:
            raise PipelineStructureError(
                f"pipeline {name!r} needs at least one stage")
        if nbuffers < 1:
            raise PipelineStructureError(
                f"pipeline {name!r}: nbuffers must be >= 1, got {nbuffers}")
        if buffer_bytes < 1:
            raise PipelineStructureError(
                f"pipeline {name!r}: buffer_bytes must be >= 1, "
                f"got {buffer_bytes}")
        if rounds is not None and rounds < 0:
            raise PipelineStructureError(
                f"pipeline {name!r}: rounds must be None or >= 0, "
                f"got {rounds}")
        if channel_capacity is not None and channel_capacity < 0:
            raise PipelineStructureError(
                f"pipeline {name!r}: channel_capacity must be None or "
                f">= 0, got {channel_capacity}")
        if channel_capacity == 0 and rounds is None:
            # capacity-0 channels are pure rendezvous: the source's first
            # put blocks until the first stage gets, but a rounds=None
            # source also needs the recycle round-trip to learn about
            # EOS — the two block on each other before any data flows.
            raise PipelineStructureError(
                f"pipeline {name!r}: channel_capacity=0 (rendezvous) "
                "cannot be combined with rounds=None; the unknown-length "
                "recycling protocol deadlocks before the first buffer is "
                "delivered.  Give the channels capacity >= 1 or declare "
                "rounds")
        seen = set()
        for stage in stages:
            if id(stage) in seen:
                raise PipelineStructureError(
                    f"stage {stage.name!r} appears twice in pipeline "
                    f"{name!r}")
            seen.add(id(stage))
        by_name = {s.name: s for s in stages}
        self.replicas: dict[str, int] = {}
        for sname, count in (replicas or {}).items():
            stage = by_name.get(sname)
            if stage is None:
                raise PipelineStructureError(
                    f"pipeline {name!r}: replicas names unknown stage "
                    f"{sname!r}")
            if count < 1:
                raise PipelineStructureError(
                    f"pipeline {name!r}: replicas for stage {sname!r} "
                    f"must be >= 1, got {count}")
            if stage.style != "map":
                raise PipelineStructureError(
                    f"pipeline {name!r}: replicated stage {sname!r} must "
                    "be map-style (the replica loop owns accept/convey)")
            if stage.virtual:
                raise PipelineStructureError(
                    f"pipeline {name!r}: virtual stage {sname!r} cannot "
                    "be replicated (it already shares a thread with its "
                    "group)")
            self.replicas[sname] = count
        self.name = name
        self.stages: list[Stage] = list(stages)
        self.nbuffers = nbuffers
        self.buffer_bytes = buffer_bytes
        self.rounds = rounds
        self.aux_buffers = aux_buffers
        #: bound each inter-stage queue at assembly time (None keeps the
        #: historical unbounded queues).  Bounding trades latency overlap
        #: for memory determinism; the FG108 lint rule proves when a
        #: bound combined with intersecting stages is deadlock-prone.
        self.channel_capacity = channel_capacity
        #: why this pipeline exists, when it is not ordinary program
        #: structure: the recovery manager marks speculative backup
        #: chains "backup" and re-assigned partition chains "adopted",
        #: so structural analyses (FG108 parking, provenance
        #: fingerprints) can tell recovery machinery from the program
        #: proper.  None for ordinary pipelines.
        self.role = role

    def replica_count(self, stage: Stage) -> int:
        """Declared replica count for ``stage`` (1 when not replicated)."""
        return self.replicas.get(stage.name, 1)

    def is_replicated(self, stage: Stage) -> bool:
        """True when ``stage`` was declared in ``replicas`` (even with
        count 1, which still wires the sequencer)."""
        return stage.name in self.replicas

    def position_of(self, stage: Stage) -> int:
        """Index of ``stage`` within this pipeline (0-based)."""
        for i, s in enumerate(self.stages):
            if s is stage:
                return i
        raise PipelineStructureError(
            f"stage {stage.name!r} is not in pipeline {self.name!r}")

    def __contains__(self, stage: Stage) -> bool:
        return any(s is stage for s in self.stages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        chain = " -> ".join(s.name for s in self.stages)
        return (f"<Pipeline {self.name}: source -> {chain} -> sink, "
                f"{self.nbuffers}x{self.buffer_bytes}B, "
                f"rounds={self.rounds}>")
