"""Each stage function is analysed once: the decode memo and the one
``ProgramGraph`` per ``start()``.

What depends only on the code object (its decoded instructions) is
memoised per code object; what depends on the closure (which object a
name holds) is resolved per function, per call.  These tests pin the
line between the two, check the memoised scan against a test-only oracle
fed by a fresh ``dis.get_instructions`` (as PR 13 did for the merge),
and count — not time — the work one ``start()`` does.
"""

import dis
import glob
import os
import runpy
import sys

import pytest

from repro.bench.harness import run_sort
from repro.check import dataflow
from repro.check.dataflow import (
    PURE,
    WRITE_SHARED,
    classify_fn,
    fn_effects,
    shared_state_evidence,
)
from repro.core import FGProgram
from repro.pdm.records import RecordSchema
from repro.plan.ir import ProgramGraph

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def fresh_decode(code):
    """The oracle: decode from scratch, every call, no memo."""
    return tuple((i.opname, i.argval, i.arg)
                 for i in dis.get_instructions(code))


# -- (a) the memo must not leak resolution between closures ------------------

def make_stage(captured):
    def stage(ctx, buf):
        captured.append(1)
        return buf
    return stage


@pytest.mark.parametrize("list_first", [True, False])
def test_two_closures_of_one_def_get_their_own_verdicts(list_first):
    on_list, on_int = make_stage([]), make_stage(7)
    assert on_list.__code__ is on_int.__code__
    order = [on_list, on_int] if list_first else [on_int, on_list]
    verdicts = {fn: classify_fn(fn) for fn in order}
    assert verdicts[on_list] == WRITE_SHARED
    assert verdicts[on_int] == PURE
    # and again, now that the code object is certainly in the memo
    assert classify_fn(on_list) == WRITE_SHARED
    assert classify_fn(on_int) == PURE
    assert shared_state_evidence(on_list) and not shared_state_evidence(on_int)


def test_rebinding_cell_contents_changes_the_verdict():
    """Why Effects are never cached by function: the same function
    object answers differently once its cell holds something else."""
    state = 3

    def stage(ctx, buf):
        state.append(buf)
        return buf

    assert classify_fn(stage) == PURE
    state = []
    assert classify_fn(stage) == WRITE_SHARED


# -- (b) new code under an old name is analysed afresh ------------------------

def test_rebinding_a_name_to_new_code_gets_a_fresh_analysis():
    shared = {}
    namespace = {"shared": shared}
    exec("def stage(ctx, buf):\n    return buf\n", namespace)
    assert classify_fn(namespace["stage"]) == PURE
    exec("def stage(ctx, buf):\n    shared['k'] = 1\n    return buf\n",
         namespace)
    assert classify_fn(namespace["stage"]) == WRITE_SHARED
    eff = fn_effects(namespace["stage"])
    assert [str(c) for c in eff.writes] == ["shared['k']"]


def test_memo_is_bounded_and_keyed_by_the_code_object():
    info = dataflow.instructions.cache_info()
    assert info.maxsize is not None  # dynamic code is not pinned for good
    code = make_stage(0).__code__
    assert dataflow.instructions(code) is dataflow.instructions(code)
    assert dataflow.instructions(code) == fresh_decode(code)


# -- (c) differential: memoised scan == scan fed by a fresh decode -----------

def snapshot(fn, style):
    eff = dataflow.stage_effects(fn, style)

    def cells(group):
        return sorted((c.obj_id, c.key or "", c.label) for c in group)

    return (cells(eff.reads), cells(eff.writes), eff.unresolved_writes,
            eff.buffer_escapes, eff.classification,
            shared_state_evidence(fn))


@pytest.fixture(scope="module")
def stage_functions(tmp_path_factory):
    """Every stage function of examples/, both sorters and repro.apps
    (examples/beyond_sorting.py runs transpose and group-by), captured
    alive as their programs start."""
    captured = {}
    original = FGProgram.start

    def start(self):
        for p in self.pipelines:
            for s in p.stages:
                if s.fn is not None:
                    captured.setdefault(id(s.fn), (s.fn, s.style))
        return original(self)

    cwd, argv = os.getcwd(), sys.argv
    os.chdir(tmp_path_factory.mktemp("examples"))  # some write artifacts
    FGProgram.start = start
    try:
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
    return list(captured.values())


def test_memoised_scan_equals_fresh_decode_oracle(stage_functions,
                                                  monkeypatch):
    assert len(stage_functions) > 100
    assert len(EXAMPLES) >= 8
    memoised = [snapshot(fn, style) for fn, style in stage_functions]
    monkeypatch.setattr(dataflow, "instructions", fresh_decode)
    oracle = [snapshot(fn, style) for fn, style in stage_functions]
    assert memoised == oracle
    # not vacuous: the corpus has readers and writers of shared state
    assert {snap[4] for snap in memoised} >= {dataflow.READ_SHARED,
                                              WRITE_SHARED}


# -- (d) counts: what one start() does ----------------------------------------

def run_counted(monkeypatch, **kwargs):
    """Run a dsort whose pass 2 merges >= 8 runs per node; return, per
    pass-2 ``start()``, (vertical pipelines, distinct stage-function
    code objects, code objects decoded during the start, graphs built)."""
    graphs, rows = [], []
    real_from_program = ProgramGraph.from_program.__func__
    real_start = FGProgram.start

    def decoded():
        return dataflow.instructions.cache_info().misses

    def from_program(cls, program):
        graphs.append(program.name)
        return real_from_program(cls, program)

    def start(self):
        n_decoded, n_graphs = decoded(), len(graphs)
        procs = real_start(self)
        if "-p2@" in self.name:
            codes = {code for p in self.pipelines for s in p.stages
                     for code in dataflow.iter_code_objects(
                         s.fn, follow_callables=False)}
            rows.append((len(self.pipelines), len(codes),
                         decoded() - n_decoded, len(graphs) - n_graphs))
        return procs

    monkeypatch.setattr(ProgramGraph, "from_program",
                        classmethod(from_program))
    monkeypatch.setattr(FGProgram, "start", start)
    dataflow.instructions.cache_clear()
    run = run_sort("dsort", "uniform", RecordSchema.paper_16(), n_nodes=2,
                   n_per_node=4096, seed=5, tune={"block_records": 512},
                   **kwargs)
    assert run.verified
    # never twice for one code object, across every start of the run:
    # every miss is still in the (far from full) memo
    info = dataflow.instructions.cache_info()
    assert 0 < info.misses == info.currsize < info.maxsize
    return rows


@pytest.mark.parametrize("mode", ["plain", "race", "provenance"])
def test_start_decodes_each_code_object_once_and_builds_one_graph(
        monkeypatch, mode):
    kwargs = {}
    if mode == "race":
        monkeypatch.setenv("REPRO_RACE", "1")
    elif mode == "provenance":
        kwargs["provenance"] = True
    rows = run_counted(monkeypatch, **kwargs)
    assert len(rows) == 2  # one pass-2 program per node
    first, second = rows
    for pipelines, codes, _decoded, graphs in rows:
        assert pipelines >= 9  # >= 8 vertical + the horizontal one
        assert codes < pipelines  # closures of the same few functions
        assert graphs == 1
    # the first node's start decodes at most its distinct code objects
    # (pass 1 already decoded the ones the passes share); the second
    # node's stages are closures of the same code: nothing left to decode
    assert first[2] <= first[1]
    assert second[2] == 0
