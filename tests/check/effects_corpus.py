"""The stage-function corpus of ``test_analysis_once.py``, and its effects
in a form that outlives the process.

Every stage function of ``examples/``, both sorters and ``repro.apps``
(``examples/beyond_sorting.py`` runs transpose and group-by), captured
alive as their programs start.  ``canonical`` writes each one's
``Effects`` with every ``id()`` replaced by its first-appearance index
over the corpus (0 stays 0: an unresolved cell), so two stages that
share one object still share one index.

Imports nothing newer than the effect analysis itself, so the same file
records ``tests/fixtures/parent_effects.json`` at any commit::

    PYTHONPATH=<checkout>/src python tests/check/effects_corpus.py \\
        tests/fixtures/parent_effects.json

(the committed fixture was written that way at cbcaa35, the last commit
whose effect scan ran once per closure).
"""

import contextlib
import glob
import io
import json
import os
import runpy
import sys
import tempfile

from repro.bench.harness import run_sort
from repro.check import dataflow
from repro.core import FGProgram
from repro.pdm.records import RecordSchema

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def capture(workdir):
    """``([(fn, style)], [hook])``: every stage function and failure hook
    the corpus starts, in start order; ``workdir`` receives the files
    some examples write."""
    captured, hooks = {}, {}
    original = FGProgram.start

    def start(self):
        for p in self.pipelines:
            for s in p.stages:
                if s.fn is not None:
                    captured.setdefault(id(s.fn), (s.fn, s.style))
        if self.on_pipeline_failure is not None:
            hooks.setdefault(id(self.on_pipeline_failure),
                             self.on_pipeline_failure)
        return original(self)

    cwd, argv = os.getcwd(), sys.argv
    os.chdir(workdir)
    FGProgram.start = start
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for path in EXAMPLES:
                sys.argv = [path]
                runpy.run_path(path, run_name="__main__")
            for sorter in ("dsort", "csort"):
                run_sort(sorter, "uniform", RecordSchema.paper_16(),
                         n_nodes=2, n_per_node=2048, seed=3)
    finally:
        FGProgram.start = original
        os.chdir(cwd)
        sys.argv = argv
    return list(captured.values()), list(hooks.values())


def canonical(stage_functions):
    """One JSON-able entry per stage function: its effects with ids
    renumbered by first appearance (cells visited in label order)."""
    index = {0: 0}

    def cells(group):
        out = []
        for c in sorted(group, key=lambda c: (c.label, c.key or "")):
            index.setdefault(c.obj_id, len(index))
            out.append([index[c.obj_id], c.key, c.label])
        return out

    entries = []
    for fn, style in stage_functions:
        eff = dataflow.stage_effects(fn, style)
        entries.append({
            "fn": getattr(fn, "__qualname__", type(fn).__name__),
            "style": style,
            "reads": cells(eff.reads),
            "writes": cells(eff.writes),
            "unresolved_writes": list(eff.unresolved_writes),
            "buffer_escapes": list(eff.buffer_escapes),
            "classification": eff.classification,
            "evidence": dataflow.shared_state_evidence(fn),
        })
    return entries


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        corpus = canonical(capture(workdir)[0])
    with open(sys.argv[1], "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in corpus) + "\n]\n")
