"""ProvenanceRecord: one run's full identity, as a JSON document.

A provenance record captures everything needed to (a) re-execute a run
byte-exactly under the virtual-time kernel and (b) decide whether a
later re-execution *did* reproduce it:

* ``kind`` + ``args`` — which harness entry point to call and with what
  arguments (``"sort"`` → :func:`repro.bench.harness.run_sort`,
  ``"chaos_dsort"`` → :func:`repro.faults.chaos.run_chaos_dsort`,
  ``"chaos_csort"`` → :func:`repro.faults.chaos.run_chaos_csort`,
  ``"sched"`` → :func:`repro.sched.harness.run_schedule`);
* ``seeds`` — every seed the run consumed (workload generator, sorter
  config, fault plan, scheduler);
* ``fault_plan`` — the serialized :class:`~repro.faults.plan.FaultPlan`
  (``None`` for fault-free runs), round-trippable via
  :meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`;
* ``recovery_decisions`` / ``sched_decisions`` — the recovery-manager
  and scheduler decision trails, harvested from the kernel trace's
  ``recover`` / ``sched`` instants by :func:`decision_log` (zero per-app
  code);
* ``tune_decisions`` — always ``[]``: a program's pools and replica
  counts are fixed before the run, so there is no in-run decision to
  log.  The field stays so that committed records keep their format;
* ``stage_graphs`` — fingerprint per assembled FG program, captured
  through the :class:`~repro.obs.observer.ProgramObserver` event path;
* ``repro_version`` / ``code_fingerprint`` — which source tree ran;
* ``digests`` — sha256 of the sorted output bytes (``sched`` records: of
  the scheduler's decision log), the metrics snapshot, and the kernel
  event trace.

Everything except ``created`` (an optional wall-clock stamp, for humans)
is deterministic: recording the same run twice yields byte-identical
records, and :meth:`ProvenanceRecord.record_digest` — the record's own
identity — excludes ``created`` so the stamp never perturbs it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import IO, TYPE_CHECKING, Optional, Union

from repro.errors import ReproError
from repro.jsondoc import Document, read_json, write_json
from repro.prov.fingerprint import canonical_json, digest_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.trace import Tracer

__all__ = [
    "RECORD_VERSION",
    "ProvenanceRecord",
    "decision_log",
    "metrics_digest",
    "trace_digest",
]

#: bump when the record format changes incompatibly
RECORD_VERSION = 1

#: trace lines hashed per sha256 update (one join of a whole trace costs
#: megabytes of peak memory on a chaos run)
_DIGEST_CHUNK = 1024


def metrics_digest(snapshot: dict) -> str:
    """sha256 over a metrics-registry snapshot in canonical JSON."""
    return digest_json(snapshot)


def trace_digest(tracer: "Tracer") -> str:
    """sha256 over the full scheduler event timeline.

    The line format matches what the chaos harness has always hashed, so
    pre-provenance trace digests stay comparable.

    Consecutive events mostly share one instant (a PARK and the RESUME
    it hands off to carry the same float), so a time stamp is formatted
    once per run of identical floats.  The reuse test is ``is``, not
    ``==``: ``-0.0 == 0.0`` but the two format differently.  Lines reach
    sha256 in chunks, which bounds the joined string's memory.
    """
    h = hashlib.sha256()
    lines: list[str] = []
    last: object = None
    stamp = ""
    for t, process, kind, detail in tracer.events:
        if t is not last:
            last, stamp = t, f"{t:.9e}"
        lines.append(f"{stamp}|{process}|{kind}|{detail}\n")
        if len(lines) == _DIGEST_CHUNK:
            h.update("".join(lines).encode())
            lines.clear()
    h.update("".join(lines).encode())
    return h.hexdigest()


def decision_log(tracer: Optional["Tracer"], kind: str) -> list[dict]:
    """Every decision of one ``kind`` the run recorded, from the trace's
    instants of that kind — the zero-per-app-code capture path for
    :class:`~repro.recover.RecoveryManager` activity (``RECOVER``:
    checkpoint resume, speculation, partition re-assignment) and for
    :class:`~repro.sched.Scheduler` activity (``SCHED``: admission,
    placement, preemption, speculation grants).  A kind nobody emitted
    is ``[]``."""
    if tracer is None:
        return []
    return [{"time": ev.time, "process": ev.process, "detail": ev.detail}
            for ev in tracer.events if ev.kind == kind]


@dataclasses.dataclass
class ProvenanceRecord(Document):
    """One run's identity; see the module docstring for field semantics."""

    kind: str
    args: dict = dataclasses.field(default_factory=dict)
    seeds: dict = dataclasses.field(default_factory=dict)
    fault_plan: Optional[dict] = None
    tune_decisions: list = dataclasses.field(default_factory=list)
    #: the recovery manager's decision trail (``recover`` trace instants;
    #: empty for runs without a RecoveryManager)
    recovery_decisions: list = dataclasses.field(default_factory=list)
    #: the multi-tenant scheduler's decision trail (``sched`` trace
    #: instants; empty for single-program runs)
    sched_decisions: list = dataclasses.field(default_factory=list)
    stage_graphs: dict = dataclasses.field(default_factory=dict)
    digests: dict = dataclasses.field(default_factory=dict)
    repro_version: str = ""
    code_fingerprint: str = ""
    record_version: int = RECORD_VERSION
    #: optional wall-clock stamp for humans; excluded from record_digest
    created: str = ""

    # -- identity -----------------------------------------------------------

    def record_digest(self) -> str:
        """sha256 identity of the record itself (``created`` excluded,
        so stamping a record never changes what it identifies)."""
        doc = self.to_json()
        doc.pop("created", None)
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "ProvenanceRecord":
        """On top of the document rule (:mod:`repro.jsondoc`): junk is
        named as such, and a newer writer's record is refused for its
        version, not for whichever field that version added."""
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ReproError(
                "not a provenance record: expected a JSON object with a "
                f"'kind' field, got {type(doc).__name__}")
        version = doc.get("record_version", RECORD_VERSION)
        if isinstance(version, int) and version > RECORD_VERSION:
            raise ReproError(
                f"provenance record version {version} is newer than this "
                f"code understands ({RECORD_VERSION}); upgrade repro")
        return super().from_json(doc)

    def save(self, path_or_file: Union[str, IO[str]]) -> None:
        """Write the record as pretty-printed JSON (stable key order)."""
        write_json(self.to_json(), path_or_file)

    @classmethod
    def load(cls, path_or_file: Union[str, IO[str]]) -> "ProvenanceRecord":
        return cls.from_json(read_json(path_or_file))

    # -- reporting ----------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human summary (used by ``repro replay``)."""
        lines = [f"provenance record: kind={self.kind} "
                 f"digest={self.record_digest()[:16]}…"]
        if self.created:
            lines.append(f"  created          {self.created}")
        lines.append(f"  repro version    {self.repro_version}")
        lines.append(f"  code fingerprint {self.code_fingerprint[:16]}…")
        args = " ".join(f"{k}={v}" for k, v in sorted(self.args.items())
                        if v is not None)
        lines.append(f"  args             {args}")
        if self.seeds:
            lines.append("  seeds            "
                         + " ".join(f"{k}={v}"
                                    for k, v in sorted(self.seeds.items())))
        lines.append(f"  fault plan       "
                     f"{'yes' if self.fault_plan else 'none'}")
        lines.append(f"  tune decisions   {len(self.tune_decisions)}")
        if self.recovery_decisions:
            lines.append(f"  recovery log     "
                         f"{len(self.recovery_decisions)} decisions")
        if self.sched_decisions:
            lines.append(f"  scheduler log    "
                         f"{len(self.sched_decisions)} decisions")
        lines.append(f"  stage graphs     {len(self.stage_graphs)}")
        for name, value in sorted(self.digests.items()):
            shown = f"{value[:16]}…" if value else "(not captured)"
            lines.append(f"  {name + ' sha256':16s} {shown}")
        return "\n".join(lines)
