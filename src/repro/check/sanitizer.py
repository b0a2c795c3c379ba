"""FGSan: dynamic buffer-ownership sanitizer for FG programs.

FG's discipline — a buffer belongs to exactly one pipeline, is owned by
exactly one stage between accept and convey, and must not be touched
after it is conveyed downstream — is what makes the fixed pools safe
without locks.  Today the discipline is trusted; FGSan checks it.

Enable per program (``FGProgram(sanitize=True)``) or globally
(``REPRO_SANITIZE=1``).  Each buffer then carries an ownership state:

    POOLED -> (source emits) -> IN_FLIGHT -> (stage accepts) -> HELD
    HELD -> (stage conveys) -> IN_FLIGHT -> ... -> (sink recycles) -> POOLED
    HELD -> (map stage returns None) -> DROPPED (legitimate pool shrink)

Violations raise :class:`~repro.errors.SanitizerError` from the exact
operation that broke the discipline and are counted under
``sanitizer.<kind>`` metrics through the program observer:

* ``use_after_convey`` — ``data``/``view()``/``put()``/``fill()`` on a
  conveyed buffer
* ``double_convey`` — conveying a buffer already in flight
* ``convey_unheld`` — conveying a pooled/dropped buffer never accepted
* ``cross_pipeline`` — a buffer delivered along a foreign pipeline
* ``caboose_write`` — ``put()``/``fill()``/``view()`` on the end-of-stream
  marker
* ``stale_round`` — a recycled buffer re-emitted with its previous round
* ``leak`` — buffers still held by a stage after a clean teardown
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.env import sanitize_from_env
from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.buffer import Buffer
    from repro.core.pipeline import Pipeline
    from repro.core.program import FGProgram
    from repro.core.stage import Stage

__all__ = ["Sanitizer", "sanitize_from_env"]

POOLED = "pooled"
IN_FLIGHT = "in-flight"
HELD = "held"
DROPPED = "dropped"

#: the Buffer operations that write or view its bytes (``data`` alone
#: is only an ownership question)
_WRITES_OR_VIEWS = ("put", "fill", "view")


class _Track:
    """Ownership record for one buffer."""

    __slots__ = ("state", "holder")

    def __init__(self) -> None:
        self.state = POOLED
        self.holder: Optional[str] = None


class Sanitizer:
    """Per-program ownership tracker; installed at assembly time."""

    def __init__(self, program: "FGProgram") -> None:
        self.program = program
        self._tracks: dict[int, _Track] = {}
        self._buffers: list["Buffer"] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Register every pooled buffer; called once from assembly."""
        for p in self.program.pipelines:
            for buf in self.program.buffers_of(p):
                self._tracks[id(buf)] = _Track()
                self._buffers.append(buf)
                buf._san = self

    def _track(self, buf: "Buffer") -> Optional[_Track]:
        return self._tracks.get(id(buf))

    # -- violation reporting ------------------------------------------------

    def violation(self, kind: str, message: str) -> None:
        """Count the violation and raise from the offending operation."""
        self.program.observer.sanitizer_violation(kind)
        raise SanitizerError(kind, message)

    # -- lifecycle hooks (called by FGProgram / StageContext / Buffer) ------

    def on_emit(self, pipeline: "Pipeline", buf: "Buffer") -> None:
        """Source re-emits a recycled buffer (after ``clear()``)."""
        track = self._track(buf)
        if track is None:
            return
        if buf.round != -1:
            self.violation(
                "stale_round",
                f"{buf!r} re-emitted on {pipeline.name!r} still carrying "
                f"round {buf.round} from its previous trip; clear() must "
                "reset round to -1 before the source restamps it")
        if track.state != POOLED:
            self.violation(
                "cross_pipeline",
                f"source of {pipeline.name!r} emitted {buf!r} which is "
                f"{track.state} (holder: {track.holder}), not pooled")
        track.state = IN_FLIGHT
        track.holder = None

    def on_accept(self, stage: "Stage", pipeline: "Pipeline",
                  buf: "Buffer") -> None:
        if buf.is_caboose:
            return
        track = self._track(buf)
        if track is None:
            return
        if buf.pipeline is not pipeline:
            self.violation(
                "cross_pipeline",
                f"stage {stage.name!r} accepted {buf!r} from pipeline "
                f"{pipeline.name!r}, but the buffer is tied to "
                f"{buf.pipeline.name!r} — buffers cannot jump pipelines")
        if track.state != IN_FLIGHT:
            self.violation(
                "cross_pipeline",
                f"stage {stage.name!r} accepted {buf!r} which is "
                f"{track.state} (holder: {track.holder}); it was never "
                "conveyed to this stage")
        track.state = HELD
        track.holder = stage.name

    def on_convey(self, stage: "Stage", buf: "Buffer") -> None:
        if buf.is_caboose:
            return
        track = self._track(buf)
        if track is None:
            return
        if track.state == IN_FLIGHT:
            self.violation(
                "double_convey",
                f"stage {stage.name!r} conveyed {buf!r} twice; it is "
                "already in flight downstream")
        if track.state != HELD:
            self.violation(
                "convey_unheld",
                f"stage {stage.name!r} conveyed {buf!r} which is "
                f"{track.state}; only a buffer accepted by the stage "
                "may be conveyed")
        track.state = IN_FLIGHT
        track.holder = stage.name

    def on_foreign_convey(self, stage: "Stage", buf: "Buffer") -> None:
        """Stage tried to convey a buffer of a pipeline it is not in."""
        self.violation(
            "cross_pipeline",
            f"stage {stage.name!r} conveyed {buf!r} along pipeline "
            f"{buf.pipeline.name!r}, which the stage does not belong "
            "to — buffers cannot jump from one pipeline to another")

    def on_recycle(self, pipeline: "Pipeline", buf: "Buffer") -> None:
        track = self._track(buf)
        if track is None:
            return
        if buf.pipeline is not pipeline:
            self.violation(
                "cross_pipeline",
                f"sink of {pipeline.name!r} received {buf!r}, which is "
                f"tied to pipeline {buf.pipeline.name!r}")
        if track.state != IN_FLIGHT:
            self.violation(
                "double_convey",
                f"sink of {pipeline.name!r} received {buf!r} which is "
                f"{track.state} (holder: {track.holder})")
        track.state = POOLED
        track.holder = None

    def on_drop(self, stage: "Stage", buf: "Buffer") -> None:
        """A map-style stage returned None: the accepted buffer is
        intentionally abandoned (the pool shrinks for the rest of the
        run).  A no-op when the stage conveyed the buffer manually and
        then returned None — the buffer is in flight, not dropped."""
        if buf.is_caboose:
            return
        track = self._track(buf)
        if track is not None and track.state == HELD:
            track.state = DROPPED
            track.holder = stage.name

    def on_straggler(self, buf: "Buffer") -> None:
        """Virtual-group dispatch dropped an in-flight buffer that raced
        past its pipeline's shutdown (member EOS); not a leak."""
        if buf.is_caboose:
            return
        track = self._track(buf)
        if track is not None and track.state == IN_FLIGHT:
            track.state = DROPPED
            track.holder = None

    def on_access(self, buf: "Buffer", op: str) -> None:
        """``data``/``view``/``put``/``fill`` touched ``buf`` (from
        Buffer)."""
        if buf.is_caboose:
            if op in _WRITES_OR_VIEWS:
                self.violation(
                    "caboose_write",
                    f"{op}() on the caboose of pipeline "
                    f"{buf.pipeline.name!r}; the end-of-stream marker "
                    "carries no data")
            return
        track = self._track(buf)
        if track is None:
            return
        if track.state == IN_FLIGHT and track.holder is not None:
            self.violation(
                "use_after_convey",
                f"{op} on {buf!r} after stage {track.holder!r} conveyed "
                "it downstream; the buffer now belongs to the next "
                "stage")

    # -- teardown -----------------------------------------------------------

    def check_teardown(self) -> None:
        """After a clean run, no stage may still hold a buffer.

        Only ``HELD`` counts as a leak: a buffer ``IN_FLIGHT`` at
        teardown is sitting in a channel the EOS already passed — the
        normal end state for over-emitted buffers in ``rounds=None``
        pipelines — while ``HELD`` means a stage kept ownership to the
        end without conveying or dropping."""
        leaked = []
        for buf in self._buffers:
            track = self._tracks[id(buf)]
            if track.state != HELD:
                continue
            leaked.append(f"{buf!r} held by {track.holder!r}")
        if leaked:
            self.program.observer.sanitizer_violation("leak", len(leaked))
            raise SanitizerError(
                "leak",
                f"{len(leaked)} buffer(s) still owned by a stage after "
                "a clean run: " + "; ".join(leaked))
