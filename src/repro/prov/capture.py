"""ProvenanceCapture: passive run-time collection of provenance inputs.

A capture object attaches to a kernel (``ProvenanceCapture(kernel)``
sets ``kernel.provenance``) before the run starts.  From then on every
:class:`~repro.core.program.FGProgram` that starts on that kernel —
regardless of which application assembled it — reports its stage-graph
fingerprint through the :class:`~repro.obs.observer.ProgramObserver`
event path, with zero per-app code.  The harness entry points
(:func:`repro.bench.harness.run_sort`,
:func:`repro.faults.chaos.run_chaos_dsort`) attach a capture and fold
its output into the :class:`~repro.prov.record.ProvenanceRecord` they
build.

The capture is deliberately **passive**: it records nothing into the
metrics registry and the trace, so a captured run's digests equal an
uncaptured run's — capturing provenance can never perturb the thing
being captured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program import FGProgram
    from repro.plan.ir import ProgramGraph
    from repro.sim.kernel import Kernel

__all__ = ["ProvenanceCapture"]


class ProvenanceCapture:
    """Collects stage-graph fingerprints from every program started on
    one kernel (pass restarts re-report the same fingerprints)."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: program name -> stage-graph fingerprint
        self.stage_graphs: dict[str, str] = {}
        #: total FGProgram.start() calls seen (restarts re-count)
        self.program_starts = 0
        kernel.provenance = self

    def on_program_start(self, program: "FGProgram",
                         graph: "ProgramGraph") -> None:
        """Called via ProgramObserver when a program assembles, with the
        graph ``start()`` built for the linter — the fingerprint is of
        exactly what was linted, and costs no second walk."""
        self.program_starts += 1
        self.stage_graphs[program.name] = graph.fingerprint()

    def detach(self) -> None:
        """Stop capturing on this kernel."""
        if self.kernel.provenance is self:
            self.kernel.provenance = None
