"""repro.prov: provenance capture and executable replay.

Every run under the virtual-time kernel is perfectly deterministic — the
same program, seeds, fault plan, and code produce byte-identical output,
metrics, and traces.  This package captures that identity as one unit
and makes it executable again:

* :mod:`repro.prov.fingerprint` — code fingerprint (sha256 of the whole
  ``repro`` source tree) and stage-graph fingerprints (declared pipeline
  structure), the identities that make records attributable and
  bisectable;
* :mod:`repro.prov.record` — :class:`ProvenanceRecord`, the per-run JSON
  document: harness entry point + args, seeds, serialized
  :class:`~repro.faults.plan.FaultPlan`, tune decision log, stage-graph
  fingerprints, code fingerprint, and sha256 digests of output /
  metrics / trace;
* :mod:`repro.prov.capture` — :class:`ProvenanceCapture`, the passive
  kernel attachment through which every
  :class:`~repro.core.program.FGProgram` reports its structure via the
  :class:`~repro.obs.observer.ProgramObserver` event path (zero per-app
  code: dsort, csort, chaos, and tuned runs all emit records the same
  way);
* :mod:`repro.prov.replay` — :func:`replay`, which re-executes a record
  byte-exactly and verifies the digests, and :func:`emit_script`, which
  renders a record as a standalone shareable reproduction script.

Surfaced as ``python -m repro replay`` plus ``--prov-out`` on the
``sort``, ``chaos``, and ``tune`` commands; the guide is
docs/PROVENANCE.md.  The CI golden-run gate records and replays dsort,
csort, and a chaos run on every push.
"""

from repro.prov.capture import ProvenanceCapture, observed_cluster
from repro.prov.fingerprint import (
    canonical_json,
    code_fingerprint,
    digest_json,
    program_graph,
    stage_graph_fingerprint,
    version_info,
)
from repro.prov.record import (
    RECORD_VERSION,
    ProvenanceRecord,
    decision_log,
    metrics_digest,
    trace_digest,
)
from repro.prov.replay import ReplayResult, emit_script, replay

__all__ = [
    "RECORD_VERSION",
    "ProvenanceCapture",
    "ProvenanceRecord",
    "ReplayResult",
    "canonical_json",
    "code_fingerprint",
    "decision_log",
    "digest_json",
    "emit_script",
    "metrics_digest",
    "observed_cluster",
    "program_graph",
    "replay",
    "stage_graph_fingerprint",
    "trace_digest",
    "version_info",
]
