"""Executable replay: re-run a recorded run and verify it byte-exactly.

:func:`replay` dispatches on a record's ``kind``, re-executes the run
under the virtual-time kernel with the recorded arguments (including the
deserialized fault plan), captures a fresh provenance record, and
compares digest by digest.  The result distinguishes three situations:

* **reproduced** — every recorded digest, stage graph and decision
  matches; the run is byte-exact;
* **diverged** — a digest, a stage graph or a decision differs.  If
  the code fingerprint also differs the divergence is attributable to a
  code change (this is the bisection signal: replay the record at each
  candidate commit);
* **unattributable divergence** — digests differ but the code
  fingerprint matches: the run was not deterministic, which is itself a
  bug worth a report.

:func:`emit_script` turns a record into a standalone Python script that
embeds the record JSON and performs the same replay — the shareable form
of an incident reproduction (e-mail the script; running it re-creates
the chaos run and verifies the digests).
"""

from __future__ import annotations

import dataclasses
import inspect
from itertools import zip_longest
from typing import Any, Callable, Optional

from repro.errors import FaultError, ReproError, SchedError
from repro.jsondoc import check_object, from_doc
from repro.prov.record import ProvenanceRecord

__all__ = ["ReplayResult", "emit_script", "replay"]

@dataclasses.dataclass
class ReplayResult:
    """Outcome of replaying one provenance record."""

    record: ProvenanceRecord
    #: the freshly captured record of the re-execution
    replayed: ProvenanceRecord
    #: digest name -> matched? (every digest the original captured)
    matches: dict[str, bool]
    #: True when the replaying tree is the recording tree
    code_match: bool
    #: True when every re-assembled program had the recorded structure
    stage_graphs_match: bool
    #: True when the re-execution decided exactly the recorded decisions
    decisions_match: bool

    @property
    def ok(self) -> bool:
        """Byte-exact reproduction: all digests, stage graphs and
        decisions match."""
        return (all(self.matches.values()) and self.stage_graphs_match
                and self.decisions_match)

    def first_divergent_decision(self) -> Optional[tuple[str, int, Any, Any]]:
        """``(source, index, recorded, replayed)`` of the first differing
        decision (past a stream's end, None), or None if all match."""
        recorded, replayed = self.record.decisions, self.replayed.decisions
        for source in sorted(recorded.keys() | replayed.keys()):
            for index, (old, new) in enumerate(zip_longest(
                    recorded.get(source, []), replayed.get(source, []))):
                if old != new:
                    return source, index, old, new
        return None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "matches": dict(self.matches),
            "code_match": self.code_match,
            "stage_graphs_match": self.stage_graphs_match,
            "decisions_match": self.decisions_match,
            "recorded_digests": dict(self.record.digests),
            "replayed_digests": dict(self.replayed.digests),
            "recorded_code": self.record.code_fingerprint,
            "replayed_code": self.replayed.code_fingerprint,
        }

    def describe(self) -> str:
        lines = [f"replay of {self.record.kind} record "
                 f"{self.record.record_digest()[:16]}…:"]
        for name in sorted(self.matches):
            verdict = "match" if self.matches[name] else "MISMATCH"
            lines.append(f"  {name + ' digest':16s} {verdict}")
        lines.append("  stage graphs     "
                     + ("match" if self.stage_graphs_match else "MISMATCH"))
        lines.append("  decisions        "
                     + ("match" if self.decisions_match else "MISMATCH"))
        divergent = self.first_divergent_decision()
        if divergent is not None:
            source, index, old, new = divergent
            lines += [f"    first differs  {source}[{index}]",
                      f"    recorded       {old}", f"    replayed       {new}"]
        lines.append("  code             "
                     + ("same tree" if self.code_match
                        else "different tree "
                             f"(recorded {self.record.code_fingerprint[:12]}…, "
                             f"now {self.replayed.code_fingerprint[:12]}…)"))
        if self.ok:
            lines.append("result: REPRODUCED byte-exactly")
        elif self.code_match:
            lines.append("result: DIVERGED under the *same* code — the "
                         "run is nondeterministic (file a bug)")
        else:
            lines.append("result: DIVERGED — attributable to a code "
                         "change since the recording")
        return "\n".join(lines)


def _call(harness: Callable[..., Any], args: dict,
          readers: dict[str, tuple[str, Callable[[Any], Any]]],
          **fixed: Any) -> Any:
    """``harness(**fixed, **args)``, each ``readers`` key (record key ->
    (parameter it fills, reader of its document)) decoded first — after
    the document rule (:mod:`repro.jsondoc`) has refused, before the
    run starts, any key the harness does not take."""
    params = inspect.signature(harness).parameters
    key_of = {param: key for key, (param, _) in readers.items()}
    check_object(
        args, "ProvenanceRecord.args",
        [key_of.get(name, name) for name in params if name not in fixed],
        [key_of.get(name, name) for name, param in params.items()
         if param.default is param.empty and name not in fixed])
    for key, value in args.items():
        name, read = readers.get(key, (key, None))
        fixed[name] = value if read is None or value is None else read(value)
    return harness(**fixed)


def _replay_sort(record: ProvenanceRecord) -> Any:
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema
    from repro.plan import Plan

    return _call(run_sort, record.args,
                 {"record_bytes": ("schema", RecordSchema),
                  "plan": ("plan", Plan.from_json)},
                 provenance=True)


def _replay_chaos(record: ProvenanceRecord) -> Any:
    from repro.faults.chaos import run_chaos_csort, run_chaos_dsort
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.recover import RecoverPolicy

    # run_chaos_csort takes no ``recover``: a csort record carrying one
    # is refused by _call like any other key its harness does not take
    return _call(
        run_chaos_csort if record.kind == "chaos_csort" else run_chaos_dsort,
        record.args,
        {"retry": ("retry", lambda doc: from_doc(RetryPolicy, doc,
                                                 error=FaultError)),
         "recover": ("recover", RecoverPolicy.from_json)},
        plan=(FaultPlan.from_json(record.fault_plan)
              if record.fault_plan is not None else None))


def _replay_sched(record: ProvenanceRecord) -> Any:
    from repro.sched import ArrivalTrace, Quota, run_schedule

    return _call(
        run_schedule, record.args,
        {"trace": ("trace", ArrivalTrace.from_json),
         "quotas": ("quotas", lambda doc: from_doc(
             dict[str, Quota], doc, error=SchedError,
             path="ProvenanceRecord.args.quotas"))},
        provenance=True)


#: record kind -> how to re-execute it (returns the harness's report)
_REPLAYERS = {"sort": _replay_sort, "chaos_dsort": _replay_chaos,
              "chaos_csort": _replay_chaos, "sched": _replay_sched}

#: record kinds replay knows how to re-execute
REPLAYABLE_KINDS = tuple(_REPLAYERS)


def replay(record: ProvenanceRecord) -> ReplayResult:
    """Re-execute ``record`` and compare every captured digest, stage
    graph and decision."""
    if record.kind not in _REPLAYERS:
        raise ReproError(
            f"cannot replay record kind {record.kind!r}; replayable "
            f"kinds: {', '.join(REPLAYABLE_KINDS)}")
    fresh = _REPLAYERS[record.kind](record).provenance
    if fresh is None:
        raise ReproError(f"{record.kind} replay did not capture "
                         "provenance (tracing disabled?)")
    matches = {name: bool(value) and fresh.digests.get(name) == value
               for name, value in record.digests.items() if value}
    return ReplayResult(
        record=record,
        replayed=fresh,
        matches=matches,
        code_match=record.code_fingerprint == fresh.code_fingerprint,
        stage_graphs_match=record.stage_graphs == fresh.stage_graphs,
        decisions_match=record.decisions == fresh.decisions,
    )


_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Standalone replay of a recorded `repro` run.

Generated by `repro replay --script` from a provenance record
(kind: {kind}, record digest {digest}).

Running this script re-executes the recorded run byte-exactly under the
deterministic virtual-time kernel and verifies the output, metrics, and
trace digests against the record embedded below.  It needs the `repro`
package on PYTHONPATH (and numpy); nothing else.  Exit status 0 means
the run was reproduced byte-exactly.
"""

RECORD = r"""
{record_json}
"""


def main() -> int:
    import json

    from repro.prov import ProvenanceRecord, replay

    record = ProvenanceRecord.from_json(json.loads(RECORD))
    print(record.describe())
    print()
    result = replay(record)
    print(result.describe())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
'''


def emit_script(record: ProvenanceRecord,
                path: Optional[str] = None) -> str:
    """Render ``record`` as a standalone replay script.

    Returns the script text; also writes it to ``path`` when given.  The
    embedded JSON is pretty-printed with stable key order, so emitting
    the same record twice yields byte-identical scripts.
    """
    import json

    if record.kind not in REPLAYABLE_KINDS:
        raise ReproError(
            f"cannot emit a replay script for record kind "
            f"{record.kind!r}; replayable kinds: "
            f"{', '.join(REPLAYABLE_KINDS)}")
    text = _SCRIPT_TEMPLATE.format(
        kind=record.kind,
        digest=record.record_digest()[:16] + "…",
        record_json=json.dumps(record.to_json(), indent=2, sort_keys=True))
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
