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
* ``decisions`` — ``{source: [entries]}`` of each :class:`DecisionLog`
  the harness passed (``fault``, ``recover``, ``sched``), never read
  from the trace; a source that decided nothing is absent;
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
    from repro.sim.kernel import Kernel
    from repro.sim.trace import Tracer

__all__ = [
    "RECORD_VERSION",
    "DecisionLog",
    "ProvenanceRecord",
    "metrics_digest",
    "trace_digest",
]

#: bump when the record format changes incompatibly
RECORD_VERSION = 3

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


class DecisionLog:
    """One owner's run-time decisions, kept once: the
    :class:`~repro.sched.Scheduler`'s, the
    :class:`~repro.recover.RecoveryManager`'s and the
    :class:`~repro.faults.FaultInjector`'s.  An entry is a JSON object
    with a ``time`` and a ``kind`` that nothing writes to once appended.
    Provenance reads the entries, never the trace."""

    def __init__(self, kernel: "Kernel", source: str,
                 process: Optional[str] = None, *,
                 counter: Optional[str] = None) -> None:
        self.kernel = kernel
        #: keys the record's entries; the trace instants' kind
        self.source = source
        #: the trace instants' process name, unless an entry names its own
        self.process = process
        #: prefix of the ``<counter>.<kind>`` counters, if the owner counts
        self.counter = counter
        self.entries: list[dict] = []
        self._lines: list[str] = []

    def append(self, entry: dict, text: Optional[str] = None,
               process: Optional[str] = None) -> None:
        """Log ``entry``: its canonical line, a ``<counter>.<kind>`` count
        (the counter is created at its kind's first entry; decisions are
        few, so it is not cached) and, on a traced run, an instant whose
        text is ``text`` or else the line, from ``process`` or else the
        log's process."""
        line = canonical_json(entry)
        self.entries.append(entry)
        self._lines.append(line)
        metrics = self.kernel.metrics
        if self.counter is not None and metrics is not None:
            metrics.counter(f"{self.counter}.{entry['kind']}").inc()
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.record(entry["time"], process or self.process,
                          self.source, line if text is None else text)

    def text(self) -> str:
        """The log as canonical JSON, one entry per line."""
        return "".join(line + "\n" for line in self._lines)

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()


@dataclasses.dataclass
class ProvenanceRecord(Document):
    """One run's identity; see the module docstring for field semantics."""

    kind: str
    args: dict = dataclasses.field(default_factory=dict)
    seeds: dict = dataclasses.field(default_factory=dict)
    fault_plan: Optional[dict] = None
    #: source -> its :class:`DecisionLog` entries; a source that decided
    #: nothing is absent
    decisions: dict = dataclasses.field(default_factory=dict)
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
        named as such, and a record of another format version is refused
        for its version, not for whichever field that version changed."""
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ReproError(
                "not a provenance record: expected a JSON object with a "
                f"'kind' field, got {type(doc).__name__}")
        version = doc.get("record_version", RECORD_VERSION)
        if isinstance(version, int) and version != RECORD_VERSION:
            age = "newer" if version > RECORD_VERSION else "older"
            raise ReproError(
                f"provenance record version {version} is {age} than this "
                f"code reads ({RECORD_VERSION}); replay it at the commit "
                "that recorded it, or re-record the run with this code")
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
        for source, entries in sorted(self.decisions.items()):
            lines.append(f"  {source + ' log':16s} "
                         f"{len(entries)} decisions")
        lines.append(f"  stage graphs     {len(self.stage_graphs)}")
        for name, value in sorted(self.digests.items()):
            shown = f"{value[:16]}…" if value else "(not captured)"
            lines.append(f"  {name + ' sha256':16s} {shown}")
        return "\n".join(lines)
