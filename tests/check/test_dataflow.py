"""FGPar effect analysis: cells, classifications, conflicts, aliases.

Also the satellite regressions for the shared-walker refactor: FG109's
evidence scan and the linter's EOS scan both ride
:func:`repro.check.dataflow.iter_code_objects`, and these tests pin that
their verdicts on the pre-refactor fixtures did not move.
"""

import functools
import threading

from repro.check import lint_program
from repro.check.dataflow import (
    PURE,
    READ_SHARED,
    WRITE_SHARED,
    Cell,
    cells_conflict,
    classify_fn,
    fn_effects,
    program_effects,
    shared_state_evidence,
    unserializable_captures,
)
from repro.core import FGProgram, Stage
from repro.plan.ir import ProgramGraph
from repro.sim import VirtualTimeKernel


def fresh_prog(name="effects-prog"):
    return FGProgram(VirtualTimeKernel(), name=name)


# -- classification ---------------------------------------------------------

def test_pure_transform_is_pure():
    def stage(ctx, buf):
        data = buf.view("u1")
        total = int(data.sum())
        return buf if total >= 0 else None

    assert classify_fn(stage) == PURE


def test_shared_read_is_read_shared():
    config = {"threshold": 3}

    def stage(ctx, buf):
        if config["threshold"] > 0:
            return buf
        return None

    assert classify_fn(stage) == READ_SHARED
    eff = fn_effects(stage)
    assert [str(c) for c in eff.reads] == ["config['threshold']"]
    assert not eff.writes


def test_keyed_dict_write_is_write_shared():
    state = {"next_run": 0, "runs": []}

    def stage(ctx, buf):
        state["next_run"] += 1
        state["runs"].append(("run", 1))
        return buf

    eff = fn_effects(stage)
    assert eff.classification == WRITE_SHARED
    labels = sorted(str(c) for c in eff.writes)
    assert labels == ["state['next_run']", "state['runs']"]


def test_attribute_write_is_write_shared():
    class Box:
        total = 0

    box = Box()

    def stage(ctx, buf):
        box.total = box.total + 1
        return buf

    eff = fn_effects(stage)
    assert eff.classification == WRITE_SHARED
    assert [str(c) for c in eff.writes] == ["box.total"]


def test_closure_rebind_and_global_rebind_are_writes():
    count = 0

    def rebinder(ctx, buf):
        nonlocal count
        count += 1
        return buf

    def global_rebinder(ctx, buf):
        global _test_counter  # noqa: PLW0603 - the point of the test
        _test_counter = 1
        return buf

    assert classify_fn(rebinder) == WRITE_SHARED
    assert classify_fn(global_rebinder) == WRITE_SHARED


def test_local_mutation_stays_pure():
    def stage(ctx, buf):
        acc = []
        for i in range(3):
            acc.append(i)
        return buf

    assert classify_fn(stage) == PURE


def test_sibling_closure_is_not_attributed():
    # two stages share a helper closure; the helper's writes belong to
    # whichever stage *calls* it, and the effect scan must not paint
    # both (the recover-harness gate_check trap)
    log = []

    def helper(x):
        log.append(x)

    def quiet(ctx, buf):
        return buf

    # quiet never references helper or log
    assert classify_fn(quiet) == PURE


def test_variable_key_subscript_is_documented_false_negative():
    state = {}

    def stage(ctx, buf):
        key = buf.round
        state[key] = 1  # dynamic key: invisible to the static scan
        return buf

    # the key load clobbers the provenance register, so the store is
    # invisible — the same straight-line-provenance contract FG109
    # documents.  Pinned so a future fix updates the docs too.
    eff = fn_effects(stage)
    assert eff.classification == PURE


def test_closure_value_key_subscript_is_a_keyed_write():
    # dsort pass 2's ``state[ends_key] = True``: the key is an immutable
    # closure value, a subscript key as a const is
    def make(state, ends_key):
        def send(ctx):
            state[ends_key] = True
        return send

    state = {}
    writes = [fn_effects(make(state, key)).writes for key in
              ("ends:0", "ends:1", "ends:0")]
    assert [[(c.key, str(c)) for c in w] for w in writes] == [
        [("['ends:0']", "state[ends_key]")],
        [("['ends:1']", "state[ends_key]")],
        [("['ends:0']", "state[ends_key]")]]
    (a,), (b,), (c,) = writes
    # the key is each closure's own value: two ranks' markers do not
    # conflict, one rank's twice does
    assert not cells_conflict(a, b, a_writes=True, b_writes=True)
    assert cells_conflict(a, c, a_writes=True, b_writes=True)


# -- state that arrives outside closure cells and globals -------------------
#
# A partial's arguments, a bound method's ``self`` and a callable
# instance reach the function as ordinary parameters, which the scan
# treats as private.  They used to classify ``pure`` — the one verdict
# that unlocks replication.

def _accumulate(acc, ctx, buf):
    acc.append(buf.round)
    return buf


class _Counter:
    def __init__(self):
        self.n = 0

    def __call__(self, ctx, buf):
        self.n += 1
        return buf

    def bump(self, ctx, buf):
        self.n += 1
        return buf

    @classmethod
    def stateless(cls, ctx, buf):
        return buf

    @staticmethod
    def plain(ctx, buf):
        return buf


def test_partial_carrying_mutable_state_is_write_shared():
    stage = functools.partial(_accumulate, [])
    assert classify_fn(stage) == WRITE_SHARED
    assert fn_effects(stage).unresolved_writes == (
        "partial argument 0 (list)",)
    by_keyword = functools.partial(lambda ctx, buf, acc: buf, acc={})
    assert fn_effects(by_keyword).unresolved_writes == (
        "partial keyword 'acc' (dict)",)
    nested = functools.partial(functools.partial(_accumulate), set())
    assert classify_fn(nested) == WRITE_SHARED


def test_partial_carrying_only_immutables_keeps_the_functions_verdict():
    assert classify_fn(functools.partial(_accumulate, (1, 2))) == PURE
    assert classify_fn(functools.partial(_accumulate, None)) == PURE
    shared = {}

    def reader(scale, ctx, buf):
        return buf if shared["k"] else None

    # the rest of the analysis runs on partial.func
    stage = functools.partial(reader, 3)
    assert classify_fn(stage) == READ_SHARED
    assert [str(c) for c in fn_effects(stage).reads] == ["shared['k']"]


def test_partial_shifts_the_buffer_parameter():
    keep = []

    def hoarder(scale, ctx, buf):
        keep.append(buf)
        return buf

    stage = functools.partial(hoarder, 2)
    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes
    prog = fresh_prog("partial-escape")
    prog.add_pipeline("p", [Stage.map("hoard", stage)], nbuffers=1,
                      buffer_bytes=8, rounds=1)
    (entry,) = program_effects(ProgramGraph.from_program(prog)).stages
    assert entry.effects.buffer_escapes == eff.buffer_escapes


def test_bound_method_and_callable_instance_are_write_shared():
    counter = _Counter()
    assert classify_fn(counter.bump) == WRITE_SHARED
    assert fn_effects(counter.bump).unresolved_writes == (
        "__self__ (_Counter)",)
    assert classify_fn(counter) == WRITE_SHARED
    assert fn_effects(counter).unresolved_writes == (
        "callable instance (_Counter)",)
    # a builtin's bound method has no bytecode, but its owner is state
    assert classify_fn([].append) == WRITE_SHARED


def test_methods_without_instance_state_stay_pure():
    # a classmethod's __self__ is the class, a staticmethod has none,
    # a builtin function's is its module: none of them is mutable state
    assert classify_fn(_Counter.stateless) == PURE
    assert classify_fn(_Counter().plain) == PURE
    assert classify_fn(len) == PURE


def test_wrapped_stage_callables_are_seen_through_by_every_scan():
    shared = []

    def declarer(log, ctx, buf):
        shared.append(1)
        ctx.convey_caboose()

    stage = functools.partial(declarer, ())
    # the linter's EOS scan finds the declarer behind the partial
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("declare", stage)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    assert "FG104" not in {f.rule_id for f in lint_program(prog)}
    assert shared_state_evidence(stage) == [
        "calls .append() on shared 'shared'"]
    assert shared_state_evidence(functools.partial(_accumulate, [])) == [
        "carries state in through partial argument 0 (list)"]



# -- cell conflict semantics ------------------------------------------------

def test_cells_conflict_semantics():
    whole = Cell(7, None, "state")
    key_a = Cell(7, "['a']", "state['a']")
    key_b = Cell(7, "['b']", "state['b']")
    other = Cell(8, "['a']", "other['a']")
    assert cells_conflict(key_a, key_a, a_writes=True, b_writes=True)
    assert not cells_conflict(key_a, key_b, a_writes=True, b_writes=True)
    assert cells_conflict(whole, key_a, a_writes=True, b_writes=False)
    # a whole-object *read* is weak evidence against a keyed write
    assert not cells_conflict(key_a, whole, a_writes=True, b_writes=False)
    assert not cells_conflict(key_a, other, a_writes=True, b_writes=True)
    assert not cells_conflict(key_a, key_a, a_writes=False, b_writes=False)


# -- buffer-escape (FG111) tracking -----------------------------------------

def test_appending_the_buffer_is_an_escape():
    stash = []

    def stage(ctx, buf):
        stash.append(buf)
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_appending_a_view_is_an_escape():
    stash = []

    def stage(ctx, buf):
        stash.append(buf.view("u1"))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_appending_a_derived_scalar_is_not_an_escape():
    # the nested len(...) call must pair with its own CALL, not launder
    # or trip the enclosing append (the unbalanced-exchange fixture)
    stash = []

    def stage(ctx, buf):
        records = buf.view("u1")
        stash.append(len(records))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == ()


def test_appending_a_copy_is_not_an_escape():
    stash = []

    def stage(ctx, buf):
        records = buf.view("u1")
        stash.append((1, records.copy()))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == ()


def test_tuple_wrapping_the_alias_still_escapes():
    stash = []

    def stage(ctx, buf):
        stash.append((buf, 1))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_storing_alias_into_shared_subscript_escapes():
    state = {}

    def stage(ctx, buf):
        state["last"] = buf.data
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_int_and_copy_results_are_not_aliases():
    # recovery pass 1's write stage: the pending entry keeps int() copies
    # of the buffer's fragment tags, the backup a copy of its records
    pending, backup = [], []

    def stage(ctx, buf):
        records = buf.view("u1")
        backup.append((1, records.copy()))
        pending.append({"n": len(records),
                        "frags": [[int(s), int(b)]
                                  for s, b in buf.tags["frags"]]})
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == ()


def test_a_generator_of_ints_over_a_view_is_not_an_escape():
    merged = []

    def stage(ctx, buf):
        merged.extend(int(x) for x in buf.view("<i8"))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == ()


def test_a_comprehension_argument_does_not_hide_an_escape():
    stash = []

    def stage(ctx, buf):
        stash.append((buf, [i for i in range(2)]))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_a_tags_read_does_not_hide_a_data_alias():
    stash = []

    def stage(ctx, buf):
        stash.append((buf.data, buf.tags))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_a_call_beside_the_alias_does_not_hide_it():
    # len(...) is loaded while buf.data is pending: its CALL must leave
    # the alias pending for the append
    stash = []

    def stage(ctx, buf):
        stash.append((buf.data, len(stash)))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert any("buffer alias" in e for e in eff.buffer_escapes)


def test_a_call_over_the_alias_consumes_it():
    stash = []

    def stage(ctx, buf):
        stash.append(len(buf.data))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == ()


def test_a_closure_callee_over_the_alias_consumes_it():
    # ``helper`` is neither a global nor a method: its CALL must pair
    # with its own entry, not with the enclosing append's
    stash = []

    def helper(data):
        return len(data)

    def stage(ctx, buf):
        stash.append(helper(buf.data))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == ()


def test_a_local_callee_beside_the_alias_does_not_hide_it():
    stash = []

    def stage(ctx, buf):
        size = len
        stash.append((buf.data, size(stash)))
        return buf

    eff = fn_effects(stage, buffer_param="buf")
    assert eff.buffer_escapes == (
        "passes a buffer alias into shared 'stash'",)


# -- whole-program view -----------------------------------------------------

def test_program_effects_finds_cross_pipeline_conflict():
    prog = fresh_prog()
    state = {"count": 0}

    def bump_a(ctx, buf):
        state["count"] += 1
        return buf

    def bump_b(ctx, buf):
        state["count"] += 1
        return buf

    prog.add_pipeline("a", [Stage.map("bump_a", bump_a)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    prog.add_pipeline("b", [Stage.map("bump_b", bump_b)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    effects = program_effects(ProgramGraph.from_program(prog))
    pairs = {frozenset((c.stage_a, c.stage_b))
             for c in effects.all_conflicts}
    assert frozenset(("bump_a", "bump_b")) in pairs
    entry = effects.stage("bump_a")
    assert entry is not None and entry.fn_id == id(bump_a)
    assert (frozenset(("bump_a", "bump_b")),) == tuple(
        {p for p, _oid, _k in effects.predicted_pairs()})


def test_program_effects_clean_program_has_no_conflicts():
    prog = fresh_prog()

    def fill(ctx, buf):
        return buf

    prog.add_pipeline("p", [Stage.map("fill", fill)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    effects = program_effects(ProgramGraph.from_program(prog))
    assert effects.all_conflicts == []
    assert effects.stage("fill").effects.classification == PURE


def test_canonical_form_carries_no_parallel_safety():
    """The IR is structure only: a stage's effects (what moving code
    into or out of a helper can flip) are in no fingerprint."""
    shared = {"n": 0}

    def writer(ctx, buf):
        shared["n"] += 1
        return buf

    def build(fn):
        prog = fresh_prog()
        prog.add_pipeline("p", [Stage.map("s", fn)],
                          nbuffers=2, buffer_bytes=8, rounds=1)
        return ProgramGraph.from_program(prog)

    assert classify_fn(writer) == WRITE_SHARED
    doc = build(writer).canonical()
    assert doc["pipelines"][0]["stages"][0] == {"name": "s", "style": "map"}
    assert build(writer).fingerprint() == build(
        lambda ctx, buf: buf).fingerprint()


# -- FG114 captures ---------------------------------------------------------

def test_unserializable_captures_flags_foreign_state():
    lock = threading.Lock()

    def locked(ctx, buf):
        with lock:
            return buf

    gen = (i for i in range(3))

    def generating(ctx, buf):
        next(gen)
        return buf

    assert any("Lock" in c or "lock" in c
               for c in unserializable_captures(locked))
    assert any("generator" in c
               for c in unserializable_captures(generating))


def test_unserializable_captures_exempts_fg_native_objects():
    # control channels are idiomatic FG (fork/join gating); the runtime
    # proxies its own objects across a process boundary
    kernel = VirtualTimeKernel()
    from repro.sim.channel import Channel
    control = Channel(kernel, capacity=1)

    def gated(ctx, buf):
        control.put(1)
        return buf

    assert unserializable_captures(gated) == []


def test_containing_object_is_not_transitively_flagged():
    class Holder:
        def __init__(self):
            self.lock = threading.Lock()

    holder = Holder()

    def stage(ctx, buf):
        with holder.lock:
            return buf

    assert unserializable_captures(stage) == []


# -- shared-walker parity (satellite 1) -------------------------------------

def test_fg109_evidence_phrasing_is_unchanged():
    state = {"acc": []}

    def appender(ctx, buf):
        state["acc"].append(1)
        return buf

    count = 0

    def rebinder(ctx, buf):
        nonlocal count
        count += 1
        return buf

    assert shared_state_evidence(appender) \
        == ["calls .append() on shared 'state'"]
    assert shared_state_evidence(rebinder) \
        == ["rebinds closure variable 'count'"]


def test_fg109_evidence_follows_helper_closures():
    # the evidence walk keeps the full closure-following frontier the
    # old linter-local walker had; the effect scan deliberately does not
    state = {"n": 0}

    def helper():
        state["n"] += 1

    def stage(ctx, buf):
        helper()
        return buf

    assert any("assigns into shared 'state'" in e
               for e in shared_state_evidence(stage))
    assert classify_fn(stage) == PURE  # own-code scope: no attribution
