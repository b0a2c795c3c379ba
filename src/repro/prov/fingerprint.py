"""Fingerprints: stable identities for code and pipeline structure.

Provenance records (:mod:`repro.prov.record`) need two kinds of identity:

* **code fingerprint** — which source tree produced a run.  Computed as
  a sha256 over every ``.py`` file of the installed ``repro`` package
  (path-sorted, contents included), so any edit anywhere in the engine
  changes it.  This is what makes a recorded run *bisectable*: replay a
  record against a later tree, and a digest mismatch plus a fingerprint
  mismatch says "a code change altered this run's behaviour".
* **stage-graph fingerprint** — which pipeline structure a program
  assembled.  Emitted from the shared graph IR
  (:meth:`repro.plan.ir.ProgramGraph.canonical` — the same view the
  linter and planner consume): pipeline names, stage
  names/styles/virtual groups, pool geometry, rounds, replica
  declarations, intersecting-stage edges, and the digest of any applied
  plan.  Two programs that can behave differently must fingerprint
  differently.  (The plan digest records origin, not behaviour: a planned program
  and the same geometry set by hand run identically and fingerprint
  apart.)

Both are pure functions of their inputs; nothing here reads clocks or
draws randomness.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

from repro._version import __version__

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program import FGProgram

__all__ = [
    "canonical_json",
    "code_fingerprint",
    "digest_json",
    "program_graph",
    "stage_graph_fingerprint",
    "version_info",
]


def canonical_json(obj: Any) -> str:
    """The canonical serialization used for every provenance digest:
    sorted keys, no whitespace, so semantically equal documents hash
    equal."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_json(obj: Any) -> str:
    """sha256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """sha256 over the full source of the installed ``repro`` package.

    Stable within one source tree (cached per process); changes whenever
    any ``.py`` file of the package changes.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(rel.encode())
            h.update(b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def version_info() -> dict:
    """The code identity embedded in every exported artifact."""
    return {"repro_version": __version__,
            "code_fingerprint": code_fingerprint()}


def program_graph(program: "FGProgram") -> dict:
    """The structure of one FG program, as pure data.

    Delegates to the shared graph IR — one code path for the linter,
    the planner, and this fingerprint, so the three can never disagree
    about what a program's structure *is*.  Covers everything
    :meth:`~repro.core.program.FGProgram.start` assembles (pipelines,
    stages, pool geometry, replica declarations, intersections) plus
    the applied plan's digest.
    """
    from repro.plan.ir import ProgramGraph

    return ProgramGraph.from_program(program).canonical()


def stage_graph_fingerprint(program: "FGProgram") -> str:
    """sha256 of :func:`program_graph` in canonical JSON."""
    return digest_json(program_graph(program))
