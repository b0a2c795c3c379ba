"""Each stage function is analysed once: the two memos and the one
``ProgramGraph`` per ``start()``.

What depends only on the code object (its decoded instructions) is
memoised per code object; the effect scan is memoised per code object,
buffer parameter and the *class* of what each captured name holds
(unknown, immutable, an object); which *object* a name holds is
resolved per function, per call.  These tests pin the line between the
three, check that the order in which the corpus's closures reach the memo
changes nothing (the corpus's effects themselves, as the per-closure scan
produced them, are the behaviour manifest's ``effects/*`` line), and
count — not time — the work one ``start()`` does.
"""

import dis
import functools
import gc
import inspect
import types
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_sort
from repro.check import dataflow
from repro.check.dataflow import (
    PURE,
    WRITE_SHARED,
    Cell,
    classify_fn,
    fn_effects,
)
from repro.check.linter import _positional_bounds
from repro.core import FGProgram, Stage
from repro.pdm.records import RecordSchema
from repro.plan.ir import ProgramGraph
from repro.sim import VirtualTimeKernel
from tests.behaviour import scenarios

MEMOS = (dataflow.instructions, dataflow._scope, dataflow._effect_events)


def fresh_decode(code):
    """The oracle: decode from scratch, every call, no memo."""
    return tuple((i.opname, i.argval, i.arg)
                 for i in dis.get_instructions(code))


def scan_key(fn, style):
    """The memo key ``stage_effects(fn, style)`` scans under."""
    buffer_param = dataflow._buffer_param_of(fn) if style == "map" else None
    return dataflow._bind(dataflow._unbind(fn)[0], buffer_param)[0]


def exact(eff):
    """Everything an ``Effects`` holds, in iteration order, labels too
    (``Cell`` equality ignores the label)."""
    def cells(group):
        return [(c.obj_id, c.key, c.label) for c in group]

    return (cells(eff.reads), cells(eff.writes), eff.unresolved_writes,
            eff.buffer_escapes)


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


EMPTY = object()  # stands for a closure cell that holds nothing yet

#: what a captured name may hold: kind -> (fresh value, what the
#: analysis may assume of it)
KINDS = {
    "int": (lambda: 7, "immutable"),
    "str": (lambda: "s", "immutable"),
    "tuple": (lambda: (1,), "immutable"),
    "None": (lambda: None, "immutable"),
    "function": (lambda: (lambda: None), "immutable"),
    "list": (lambda: [], "object"),
    "dict": (lambda: {}, "object"),
    "empty cell": (lambda: EMPTY, "unknown"),
}


def _three_names():
    a = b = c = None

    def stage(ctx, buf):
        a["k"] = 1
        n = b["k"]
        b["k"] = n
        c.append(buf)
        return buf
    return stage


def bind(values):
    """``_three_names``'s stage with cells holding ``values``."""
    template = _three_names()
    code = template.__code__
    closure = tuple(types.CellType() if values[n] is EMPTY
                    else types.CellType(values[n]) for n in code.co_freevars)
    return types.FunctionType(code, template.__globals__, "stage",
                              None, closure)


def by_hand(values, classes):
    """``_three_names``'s effects, read off its body: a name holding
    something immutable touches nothing, an empty cell is unresolved."""
    ids = {n: None if classes[n] == "immutable" else
           0 if classes[n] == "unknown" else id(values[n]) for n in "abc"}
    reads = set() if ids["b"] is None else {Cell(ids["b"], "['k']", "b['k']")}
    writes, unresolved = set(), set()
    for name, key, label in (("a", "['k']", "a['k']"),
                             ("b", "['k']", "b['k']"), ("c", None, "c")):
        if ids[name]:
            writes.add(Cell(ids[name], key, label))
        elif ids[name] == 0:
            unresolved.add(label)
    escapes = (() if ids["c"] is None
               else ("passes a buffer alias into shared 'c'",))
    return exact(dataflow.Effects(frozenset(reads), frozenset(writes),
                                  tuple(sorted(unresolved)), escapes))


@st.composite
def bindings(draw):
    """Three names, each a fresh value of some kind or the very object
    an earlier name holds."""
    values, classes = {}, {}
    for i, name in enumerate("abc"):
        earlier = "abc"[:i]
        if earlier and draw(st.booleans()):
            alias = draw(st.sampled_from(earlier))
            values[name], classes[name] = values[alias], classes[alias]
        else:
            make, cls = KINDS[draw(st.sampled_from(sorted(KINDS)))]
            values[name], classes[name] = make(), cls
    return values, classes


_SHARED = {}
_OBJECTS = {"a": "object", "b": "object", "c": "immutable"}


@settings(max_examples=200, deadline=None)
@given(st.lists(bindings(), min_size=1, max_size=4))
# one key, three bindings: a and b alias one dict (one write cell,
# labelled a['k']), then two dicts, then the alias again
@example([({"a": _SHARED, "b": _SHARED, "c": 1}, _OBJECTS),
          ({"a": {}, "b": {}, "c": 1}, _OBJECTS),
          ({"a": _SHARED, "b": _SHARED, "c": 1}, _OBJECTS)])
def test_a_binding_gets_its_own_effects_whichever_reached_the_memo_first(
        drawn):
    for values, classes in drawn:
        eff = fn_effects(bind(values), buffer_param="buf")
        assert exact(eff) == by_hand(values, classes)


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
    for memo in MEMOS:  # dynamic code is not pinned for good
        assert memo.cache_info().maxsize is not None
    code = make_stage(0).__code__
    assert dataflow.instructions(code) is dataflow.instructions(code)
    assert dataflow.instructions(code) == fresh_decode(code)
    key = scan_key(make_stage([]), "map")
    assert key[0] is code
    # a key holds the code object and strings, never an id()
    assert all(isinstance(part, str)
               for part in (key[1], *key[2], *key[3]))


class _State:
    """Shared mutable state that can be watched with a weakref."""


def test_the_memo_pins_nothing_but_code():
    """A finished run's stage closures and what they capture die; the
    memos keep code objects and strings only."""
    def run_once():
        kernel = VirtualTimeKernel()
        state = _State()
        prog = FGProgram(kernel, name="pinned")

        def stage(ctx, buf):
            state.n = buf.round
            return buf

        prog.add_pipeline("p", [Stage.map("s", stage)], nbuffers=1,
                          buffer_bytes=8, rounds=2)
        kernel.spawn(prog.run, name="main")
        kernel.run()
        assert dataflow.stage_effects(stage).classification == WRITE_SHARED
        return weakref.ref(stage), weakref.ref(state)

    refs = run_once()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# -- (c) the corpus: whichever closure comes first ---------------------------

@pytest.fixture(scope="module")
def corpus():
    """Every stage function and failure hook of examples/, both sorters
    and repro.apps, captured alive as their programs start: the behaviour
    manifest's corpus, let go after this module (every later full
    collection would walk its ~30k objects)."""
    yield scenarios.corpus()
    scenarios.examples_run.cache_clear()


def test_which_closure_reached_the_memo_first_changes_nothing(corpus):
    stage_functions, _hooks = corpus
    forward = [exact(dataflow.stage_effects(fn, style))
               for fn, style in stage_functions]
    dataflow._effect_events.cache_clear()
    backward = [exact(dataflow.stage_effects(fn, style))
                for fn, style in reversed(stage_functions)]
    assert forward == backward[::-1]
    keys = {scan_key(fn, style) for fn, style in stage_functions}
    assert len(keys) < len(stage_functions) / 10


def signature_bounds(fn):
    """FG103's arity as ``inspect.signature`` reads it."""
    minimum, maximum = 0, 0
    for param in inspect.signature(fn).parameters.values():
        if param.kind in (param.POSITIONAL_ONLY,
                          param.POSITIONAL_OR_KEYWORD):
            maximum += 1
            minimum += param.default is param.empty
        elif param.kind is param.VAR_POSITIONAL:
            maximum = float("inf")
    return minimum, maximum


def test_arity_from_the_code_object_equals_inspect_signature(corpus):
    stage_functions, hooks = corpus
    callables = [fn for fn, _style in stage_functions] + hooks
    assert hooks
    for fn in callables:
        assert _positional_bounds(fn) == signature_bounds(fn), fn
    plain = [fn for fn in callables if type(fn) is types.FunctionType]
    assert len(plain) > 100


@st.composite
def defs(draw):
    """A ``def`` with any mix of positional-only, defaulted, ``*args``,
    keyword-only and ``**kw`` parameters."""
    positional = [f"p{i}" for i in range(draw(st.integers(0, 4)))]
    n_defaults = draw(st.integers(0, len(positional)))
    params = [name + ("=0" if i >= len(positional) - n_defaults else "")
              for i, name in enumerate(positional)]
    if positional and draw(st.booleans()):
        params.insert(draw(st.integers(1, len(positional))), "/")
    keyword_only = [f"k{i}" + ("=0" if draw(st.booleans()) else "")
                    for i in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        params.append("*args")
    elif keyword_only:
        params.append("*")
    params += keyword_only
    if draw(st.booleans()):
        params.append("**kw")
    return f"def f({', '.join(params)}):\n    pass\n"


@settings(max_examples=200, deadline=None)
@given(defs())
def test_arity_of_any_def_equals_inspect_signature(source):
    namespace = {}
    exec(source, namespace)
    fn = namespace["f"]
    assert _positional_bounds(fn) == signature_bounds(fn)
    # the shapes that keep the inspect path
    for other in (functools.partial(fn), functools.wraps(fn)(
            lambda *a, **k: None)):
        assert _positional_bounds(other) == signature_bounds(other)


# -- (d) counts: what one start() does ----------------------------------------

def run_counted(monkeypatch, **kwargs):
    """Run a dsort whose pass 2 merges >= 8 runs per node; return, per
    pass-2 ``start()``, (vertical pipelines, distinct stage-function
    code objects, code objects decoded during the start, distinct scan
    keys, scans run during the start, graphs built)."""
    graphs, rows = [], []
    real_from_program = ProgramGraph.from_program.__func__
    real_start = FGProgram.start

    def misses():
        return (dataflow.instructions.cache_info().misses,
                dataflow._effect_events.cache_info().misses)

    def from_program(cls, program):
        graphs.append(program.name)
        return real_from_program(cls, program)

    def start(self):
        (decoded, scanned), n_graphs = misses(), len(graphs)
        procs = real_start(self)
        if "-p2@" in self.name:
            stages = {id(s): s for p in self.pipelines for s in p.stages
                      if s.fn is not None}.values()
            codes = {code for s in stages
                     for code in dataflow.iter_code_objects(
                         dataflow._unbind(s.fn)[0].__code__)}
            keys = {scan_key(s.fn, s.style) for s in stages}
            rows.append((len(self.pipelines), len(codes),
                         misses()[0] - decoded, len(keys),
                         misses()[1] - scanned, len(graphs) - n_graphs))
        return procs

    monkeypatch.setattr(ProgramGraph, "from_program",
                        classmethod(from_program))
    monkeypatch.setattr(FGProgram, "start", start)
    for memo in MEMOS:
        memo.cache_clear()
    run = run_sort("dsort", "uniform", RecordSchema.paper_16(), n_nodes=2,
                   n_per_node=4096, seed=5, tune={"block_records": 512},
                   **kwargs)
    assert run.verified
    # never twice for one code object or one key, across every start of
    # the run: every miss is still in the (far from full) memo
    for memo in (dataflow.instructions, dataflow._effect_events):
        info = memo.cache_info()
        assert info.misses == info.currsize < info.maxsize
    return rows


@pytest.mark.parametrize("mode", ["plain", "race", "provenance"])
def test_start_decodes_each_code_object_once_and_builds_one_graph(
        monkeypatch, mode):
    kwargs = {}
    if mode == "race":
        monkeypatch.setenv("REPRO_RACE", "1")
    else:
        monkeypatch.delenv("REPRO_RACE", raising=False)
        if mode == "provenance":
            kwargs["provenance"] = True
    rows = run_counted(monkeypatch, **kwargs)
    assert len(rows) == 2  # one pass-2 program per node
    first, second = rows
    for pipelines, codes, _decoded, keys, _scanned, graphs in rows:
        assert pipelines >= 9  # >= 8 vertical + the horizontal one
        assert codes < pipelines  # closures of the same few functions
        assert keys < pipelines
        assert graphs == 1
    # the first node's start decodes at most its distinct code objects
    # and scans at most its distinct keys (pass 1 already did the ones
    # the passes share); the second node's stages are closures of the
    # same code holding the same classes: nothing left to decode or scan
    assert first[2] <= first[1]
    assert first[4] <= first[3]
    assert second[2] == 0
    assert second[4] == 0
    # only FGRace reads effects on the run path: without it no stage is
    # scanned at all
    scans = dataflow._effect_events.cache_info().misses
    assert scans > 0 if mode == "race" else scans == 0
