"""Stage contexts: how stage functions accept, convey, and reach services.

A :class:`StageContext` is handed to every stage function.  It knows which
pipelines the stage belongs to, resolves the queues materialized by the
program, reports per-stage activity through the program's
:class:`~repro.obs.observer.ProgramObserver`, and exposes the program
environment (``node``, ``comm``, ...) that stage functions use for disk
I/O, communication, and compute charging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.buffer import Buffer
from repro.core.pipeline import Pipeline
from repro.core.stage import Stage
from repro.errors import StageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program import FGProgram

__all__ = ["StageContext"]


class StageContext:
    """Runtime interface between one stage and its program."""

    def __init__(self, program: "FGProgram", stage: Stage,
                 pipelines: list[Pipeline]) -> None:
        self.program = program
        self.stage = stage
        #: pipelines containing this stage, in registration order
        self.pipelines = pipelines
        self.kernel = program.kernel
        #: replica index when this context belongs to one copy of a
        #: replicated stage (None for ordinary stages); the copies are
        #: interchangeable, so stage functions should only need this
        #: for diagnostics
        self.replica: Optional[int] = None

    # -- environment -------------------------------------------------------

    @property
    def env(self) -> dict[str, Any]:
        """The program environment (shared services such as node, comm)."""
        return self.program.env

    @property
    def node(self):
        """Shortcut for ``env['node']`` (the cluster node, if provided)."""
        return self.program.env.get("node")

    @property
    def comm(self):
        """Shortcut for ``env['comm']`` (the communicator, if provided)."""
        return self.program.env.get("comm")

    # -- pipeline resolution ---------------------------------------------------

    def _resolve(self, pipeline: Optional[Pipeline]) -> Pipeline:
        if pipeline is not None:
            if not any(p is pipeline for p in self.pipelines):
                raise StageError(
                    f"stage {self.stage.name!r} does not belong to pipeline "
                    f"{pipeline.name!r}")
            return pipeline
        if len(self.pipelines) == 1:
            return self.pipelines[0]
        raise StageError(
            f"stage {self.stage.name!r} belongs to "
            f"{len(self.pipelines)} pipelines; accept/convey_caboose must "
            "name one (the paper: a common stage 'must specify which "
            "pipeline to accept from')")

    # -- accept / convey ----------------------------------------------------------

    def accept(self, pipeline: Optional[Pipeline] = None) -> Buffer:
        """Accept the next buffer from this stage's predecessor.

        For a stage in several (intersecting) pipelines, ``pipeline`` picks
        which predecessor queue to accept from.  Blocks until a buffer (or
        the caboose) is available.
        """
        p = self._resolve(pipeline)
        queue = self.program.in_queue(p, self.stage)
        t0 = self.kernel.now()
        buf = queue.get()
        # the caboose counts as an accept here
        self.program._accepted(self.stage, p, buf, self.kernel.now() - t0)
        return buf

    def convey(self, buffer: Buffer) -> None:
        """Convey ``buffer`` to this stage's successor in the buffer's
        own pipeline (buffers never jump pipelines)."""
        p = buffer.pipeline
        program = self.program
        if not any(q is p for q in self.pipelines):
            if program.sanitizer is not None:
                program.sanitizer.on_foreign_convey(self.stage, buffer)
            raise StageError(
                f"stage {self.stage.name!r} cannot convey a buffer tied to "
                f"pipeline {p.name!r}, which it does not belong to")
        program._convey(self.stage, buffer, program.out_queue(p, self.stage))

    def convey_caboose(self, pipeline: Optional[Pipeline] = None) -> None:
        """Declare end-of-stream on a pipeline whose length was unknown.

        Conveys a caboose to the successor; the sink will instruct the
        source to stop emitting.  Intended for the *first* stage of a
        ``rounds=None`` pipeline (e.g. dsort's receive stage) — stages
        upstream of the caller would otherwise never terminate.
        """
        p = self._resolve(pipeline)
        program = self.program
        program.mark_stage_eos(p, self.stage)
        # counted as a convey, though no pooled buffer moves
        program._convey(self.stage, program._caboose(p),
                        program.out_queue(p, self.stage))

    def forward(self, caboose: Buffer) -> None:
        """Pass a received caboose to the successor (map loops use this)."""
        if not caboose.is_caboose:
            raise StageError("forward() is for cabooses; use convey()")
        self.program.out_queue(caboose.pipeline, self.stage).put(caboose)
