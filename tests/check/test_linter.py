"""Static-linter tests: one failing fixture per rule, plus clean twins.

Every fixture builds a small FGProgram and lints it without running;
rules operate on declared structure only.
"""

import functools

import pytest

from repro.check import RULES, Severity, lint_program
from repro.core import FGProgram, Stage
from repro.errors import LintError
from repro.sim import VirtualTimeKernel


def fresh_prog(**kwargs):
    return FGProgram(VirtualTimeKernel(), name="lintee", **kwargs)


def findings_for(prog, rule_id):
    return [f for f in lint_program(prog) if f.rule_id == rule_id]


def ok_map(ctx, buf):
    return buf


def eos_full(ctx):
    while True:
        buf = ctx.accept()
        if buf.is_caboose:
            ctx.forward(buf)
            return
        ctx.convey(buf)


def declares(ctx):
    ctx.convey_caboose(ctx.pipelines[0])


def test_rule_catalog_is_complete():
    assert sorted(RULES) == [
        "FG101", "FG102", "FG103", "FG104", "FG105", "FG106", "FG107",
        "FG108", "FG109", "FG110", "FG111",
    ]
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule.severity in (Severity.WARNING, Severity.ERROR)


# -- FG101 pool smaller than depth ------------------------------------------

def test_fg101_flags_pool_smaller_than_depth():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map(f"s{i}", ok_map) for i in range(3)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    (f,) = findings_for(prog, "FG101")
    assert f.severity is Severity.WARNING
    assert not f.is_error
    assert f.pipeline == "p"


def test_fg101_clean_when_pool_matches_depth():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map(f"s{i}", ok_map) for i in range(3)],
                      nbuffers=3, buffer_bytes=8, rounds=1)
    assert not findings_for(prog, "FG101")


def test_fg101_counts_replica_expanded_depth():
    """Regression: a stage declared with N replicas runs as N copies plus
    a sequencer — 3 declared stages with ``replicas={"b": 3}`` are 6
    concurrent buffer holders, not 3.  The pre-IR check compared the pool
    against ``len(stages)`` and stayed silent here."""
    def build(nbuffers):
        prog = fresh_prog()
        prog.add_pipeline("p", [Stage.map("a", ok_map),
                                Stage.map("b", ok_map),
                                Stage.map("c", ok_map)],
                          nbuffers=nbuffers, buffer_bytes=8, rounds=4,
                          replicas={"b": 3})
        return prog

    (f,) = findings_for(build(nbuffers=4), "FG101")
    assert f.severity is Severity.WARNING
    assert f.pipeline == "p"
    assert "replica" in f.message
    # a pool covering the expanded depth (3 stages -> 2 + 3 copies
    # + sequencer = 6 holders) is clean
    assert not findings_for(build(nbuffers=6), "FG101")


# -- FG102 stage-order cycle -------------------------------------------------

def test_fg102_flags_inconsistent_shared_stage_order():
    prog = fresh_prog()
    a = Stage.source_driven("a", eos_full)
    b = Stage.source_driven("b", eos_full)
    prog.add_pipeline("p", [a, b], nbuffers=2, buffer_bytes=8, rounds=1)
    prog.add_pipeline("q", [b, a], nbuffers=2, buffer_bytes=8, rounds=1)
    (f,) = findings_for(prog, "FG102")
    assert f.is_error
    assert "cycle" in f.message


def test_fg102_clean_on_consistent_intersection():
    prog = fresh_prog()
    a = Stage.source_driven("a", eos_full)
    b = Stage.source_driven("b", eos_full)
    prog.add_pipeline("p", [a, b], nbuffers=2, buffer_bytes=8, rounds=1)
    prog.add_pipeline("q", [a, b], nbuffers=2, buffer_bytes=8, rounds=1)
    assert not findings_for(prog, "FG102")


# -- FG103 stage contract ----------------------------------------------------

def test_fg103_flags_unbound_stage_function():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.source_driven("later", None)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    (f,) = findings_for(prog, "FG103")
    assert "no function bound" in f.message


def test_fg103_flags_wrong_arity_for_style():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", lambda ctx: None)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    (f,) = findings_for(prog, "FG103")
    assert "fn(ctx, buffer)" in f.message
    assert f.stage == "m"


def test_fg103_clean_on_conforming_stages():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map),
                            Stage.source_driven("f", eos_full)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    assert not findings_for(prog, "FG103")


# -- FG104 no EOS declarer ---------------------------------------------------

def test_fg104_flags_unterminable_rounds_none_pipeline():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    (f,) = findings_for(prog, "FG104")
    assert f.is_error
    assert "convey_caboose" in f.message


def test_fg104_clean_when_a_stage_declares_eos():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.source_driven("d", declares),
                            Stage.map("m", ok_map)],
                      nbuffers=2, buffer_bytes=8, rounds=None)
    assert not findings_for(prog, "FG104")


def test_fg104_gives_full_control_stages_benefit_of_doubt():
    # a full-control loop may declare EOS through state the bytecode scan
    # cannot see; the linter must not claim certainty
    def opaque(ctx):
        ctx.accept()

    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.source_driven("opaque", opaque)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    assert not findings_for(prog, "FG104")


def test_fg104_sees_declaration_through_helper_functions():
    # the declaration lives in a sibling closure, like fork/join's loops
    def helper(ctx):
        ctx.convey_caboose(ctx.pipelines[0])

    def stage_fn(ctx):
        helper(ctx)

    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map),
                            Stage.source_driven("d", stage_fn)],
                      nbuffers=2, buffer_bytes=8, rounds=None)
    assert not findings_for(prog, "FG104")


# -- FG105 declarer not first ------------------------------------------------

def test_fg105_flags_stages_blind_to_the_caboose():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("blind", ok_map),
                            Stage.source_driven("d", declares)],
                      nbuffers=2, buffer_bytes=8, rounds=None)
    (f,) = findings_for(prog, "FG105")
    assert "blind" in f.message
    assert f.stage == "d"


def test_fg105_clean_when_declarer_is_first():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.source_driven("d", declares),
                            Stage.map("m", ok_map)],
                      nbuffers=2, buffer_bytes=8, rounds=None)
    assert not findings_for(prog, "FG105")


# -- FG106 zero rounds -------------------------------------------------------

def test_fg106_flags_zero_round_pipeline():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=0)
    (f,) = findings_for(prog, "FG106")
    assert f.severity is Severity.WARNING


def test_fg106_clean_on_positive_rounds():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    assert not findings_for(prog, "FG106")


# -- FG107 dangling failure hook --------------------------------------------

def test_fg107_flags_noncallable_hook():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    prog.on_pipeline_failure = "not a hook"
    (f,) = findings_for(prog, "FG107")
    assert "not a callable" in f.message


def test_fg107_flags_wrong_arity_hook():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    prog.on_pipeline_failure = lambda exc: None
    (f,) = findings_for(prog, "FG107")
    assert "hook(stage, pipelines, exc)" in f.message


def test_fg107_clean_on_conforming_hook():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    prog.on_pipeline_failure = lambda stage, pipelines, exc: None
    assert not findings_for(prog, "FG107")


# -- FG108 bounded chain deadlock -------------------------------------------

def shared_pair():
    return (Stage.source_driven("s", eos_full),
            Stage.source_driven("t", eos_full))


def test_fg108_flags_chain_that_cannot_park_the_pool():
    prog = fresh_prog()
    s, t = shared_pair()
    prog.add_pipeline("p", [s, t], nbuffers=2, buffer_bytes=8,
                      rounds=1, channel_capacity=0)
    prog.add_pipeline("q", [s, t], nbuffers=2, buffer_bytes=8, rounds=1)
    (f,) = findings_for(prog, "FG108")
    assert f.is_error
    assert "wait-for" in f.message


def test_fg108_clean_when_the_chain_can_absorb_the_pool():
    prog = fresh_prog()
    s, t = shared_pair()
    prog.add_pipeline("p", [s, t], nbuffers=2, buffer_bytes=8,
                      rounds=1, channel_capacity=2)
    prog.add_pipeline("q", [s, t], nbuffers=2, buffer_bytes=8, rounds=1)
    assert not findings_for(prog, "FG108")


def test_fg108_ignores_unbounded_channels():
    prog = fresh_prog()
    s, t = shared_pair()
    prog.add_pipeline("p", [s, t], nbuffers=4, buffer_bytes=8, rounds=1)
    prog.add_pipeline("q", [s, t], nbuffers=4, buffer_bytes=8, rounds=1)
    assert not findings_for(prog, "FG108")


def test_fg108_rendezvous_edges_park_nothing():
    """Regression: a capacity-0 rendezvous edge parks *zero* buffers (the
    producer blocks still holding its own), so a 3-stage chain at
    capacity 0 absorbs exactly the one buffer the middle stage holds.
    The pre-IR formula (``hops * cap + (hops - 1)``) got plain chains
    right; this pins the edge-wise model's cap-0 arithmetic."""
    def build(nbuffers):
        prog = fresh_prog()
        s, t = shared_pair()
        prog.add_pipeline("p", [s, Stage.map("m", ok_map), t],
                          nbuffers=nbuffers, buffer_bytes=8, rounds=1,
                          channel_capacity=0)
        prog.add_pipeline("q", [s, t], nbuffers=2, buffer_bytes=8,
                          rounds=1)
        return prog

    (f,) = findings_for(build(nbuffers=2), "FG108")
    assert f.is_error
    assert "wait-for" in f.message
    assert not findings_for(build(nbuffers=1), "FG108")


def test_fg108_reorder_channel_absorbs_the_pool():
    """Regression: the unbounded reorder channel behind a replicated
    stage can absorb the whole pool, so a bounded chain through a
    replicated intermediate cannot deadlock on parking space.  The
    pre-IR analysis priced every edge at ``channel_capacity`` and
    flagged this program (pool 4 > hops*cap + intermediates = 3)."""
    prog = fresh_prog()
    s, t = shared_pair()
    prog.add_pipeline("p", [s, Stage.map("work", ok_map), t],
                      nbuffers=4, buffer_bytes=8, rounds=4,
                      channel_capacity=1, replicas={"work": 2})
    prog.add_pipeline("q", [s, t], nbuffers=4, buffer_bytes=8, rounds=4)
    assert not findings_for(prog, "FG108")


# -- suppression and the start() gate ---------------------------------------

def test_lint_ignore_parameter_suppresses_rule():
    prog = fresh_prog(lint_ignore={"FG104"})
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    assert prog.lint() == []


def test_env_ignore_suppresses_rule(monkeypatch):
    monkeypatch.setenv("REPRO_LINT_IGNORE", "fg104, fg105")
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    assert prog.lint() == []


def test_start_raises_lint_error_before_spawning_anything():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    with pytest.raises(LintError) as exc_info:
        prog.start()
    assert "FG104" in str(exc_info.value)
    assert prog.lint_findings  # report is kept for inspection


def test_warnings_do_not_block_start():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    prog.add_pipeline("p", [Stage.map(f"s{i}", ok_map) for i in range(3)],
                      nbuffers=2, buffer_bytes=8, rounds=2)  # FG101 warning
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert any(f.rule_id == "FG101" for f in prog.lint_findings)


def test_lint_false_disables_the_gate():
    prog = fresh_prog(lint=False)
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    prog.start()  # no LintError; the broken pipeline is the user's problem
    assert prog.lint_findings == []


# -- FG109 replicated stage with per-round mutable state --------------------

def replicated_prog(fn, *, replicas=2, extra_stage=True):
    prog = fresh_prog()
    stages = [Stage.map("work", fn)]
    if extra_stage:
        stages.append(Stage.map("sink", ok_map))
    prog.add_pipeline("p", stages, nbuffers=4, buffer_bytes=8, rounds=4,
                      replicas={"work": replicas})
    return prog


def fg109_evidence(fn):
    """FG109's evidence on a two-replica pipeline of ``fn``, as its one
    finding lists it (``[]`` when FG109 is silent)."""
    findings = findings_for(replicated_prog(fn), "FG109")
    if not findings:
        return []
    (f,) = findings
    listed = f.message.split("mutable state: ", 1)[1]
    return listed.split(". Interchangeable", 1)[0].split("; ")


def test_fg109_flags_closure_dict_mutation():
    state = {"next_run": 0, "runs": []}

    def work(ctx, buf):
        state["next_run"] += 1
        state["runs"].append(buf.round)
        return buf

    findings = findings_for(replicated_prog(work), "FG109")
    assert len(findings) == 1
    (f,) = findings
    assert f.severity is Severity.ERROR
    assert f.stage == "work"
    assert "state" in f.message


def test_fg109_flags_closure_rebinding():
    count = 0

    def work(ctx, buf):
        nonlocal count
        count += 1
        return buf

    findings = findings_for(replicated_prog(work), "FG109")
    assert len(findings) == 1
    assert "count" in findings[0].message


def test_fg109_flags_global_mutation():
    import tests.check.fixtures  # noqa: F401 - only to have a module ns

    def work(ctx, buf):
        _FG109_GLOBAL_STATE.append(buf.round)
        return buf

    findings = findings_for(replicated_prog(work), "FG109")
    assert len(findings) == 1


_FG109_GLOBAL_STATE: list = []


def test_fg109_flags_attribute_write_on_shared_object():
    class Holder:
        total = 0

    holder = Holder()

    def work(ctx, buf):
        holder.total = holder.total + 1
        return buf

    findings = findings_for(replicated_prog(work), "FG109")
    assert len(findings) == 1
    assert ".total" in findings[0].message


def test_fg109_flags_manual_convey():
    def work(ctx, buf):
        ctx.convey(buf)
        return None

    findings = findings_for(replicated_prog(work), "FG109")
    assert len(findings) == 1
    assert "convey" in findings[0].message


def test_fg109_evidence_names_each_written_cell():
    state = {"acc": []}

    def appender(ctx, buf):
        state["acc"].append(1)
        return buf

    count = 0

    def rebinder(ctx, buf):
        nonlocal count
        count += 1
        return buf

    assert fg109_evidence(appender) == ["writes shared state['acc']"]
    assert fg109_evidence(rebinder) == ["writes shared count"]


def _accumulate(acc, ctx, buf):
    acc.append(buf.round)
    return buf


def _closure_helper_stage():
    state = {"n": 0}

    def helper():
        state["n"] += 1

    def work(ctx, buf):
        helper()
        return buf

    return work


def _global_helper(ctx, buf):
    _FG109_GLOBAL_STATE.append(buf.round)


def _writes_through_global_helper(ctx, buf):
    _global_helper(ctx, buf)
    return buf


def _manual_convey(ctx, buf):
    ctx.convey(buf)


@pytest.mark.parametrize("work, evidence", [
    (_closure_helper_stage(), "writes shared state['n']"),
    (_writes_through_global_helper, "writes shared _FG109_GLOBAL_STATE"),
    (functools.partial(_accumulate, []),
     "writes shared partial argument 0 (list)"),
    (_manual_convey, "references convey"),
], ids=["closure-helper", "global-helper", "partial", "convey"])
def test_fg109_errors_still_raise_from_start(work, evidence):
    prog = replicated_prog(work)
    with pytest.raises(LintError) as exc_info:
        prog.start()
    (f,) = [f for f in exc_info.value.findings if f.is_error]
    assert f.rule_id == "FG109" and evidence in f.message


def _local_behind_helper(ctx, buf):
    acc = []

    def add(x):
        acc.append(x)

    add(buf.round)
    return buf


def _local_behind_comprehension(ctx, buf):
    seen = []
    [seen.append(i) for i in range(buf.round)]
    return buf


@pytest.mark.parametrize("work", [_local_behind_helper,
                                  _local_behind_comprehension],
                         ids=["helper", "comprehension"])
def test_fg109_lets_replicas_keep_invocation_local_state(work):
    """A local captured by an inner helper or a comprehension is made
    afresh per call: no replica shares it, so the stage starts."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="lintee")
    prog.add_pipeline("p", [Stage.map("work", work),
                            Stage.map("sink", ok_map)],
                      nbuffers=4, buffer_bytes=8, rounds=4,
                      replicas={"work": 2})
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert [f for f in prog.lint_findings if f.rule_id == "FG109"] == []
    assert fg109_evidence(work) == []


def test_fg109_clean_stateless_stage():
    """The dsort/csort idiom: read via closure, mutate only the buffer."""
    class Schema:
        dtype = None

        def sort(self, records):
            return records

    schema = Schema()

    def work(ctx, buf):
        buf.tags["column"] = buf.round
        buf.tags.setdefault("seen", []).append(1)
        schema.sort(buf)
        return buf

    assert findings_for(replicated_prog(work), "FG109") == []


def test_fg109_ignores_unreplicated_stateful_stage():
    state = {"n": 0}

    def work(ctx, buf):
        state["n"] += 1
        return buf

    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("work", work)],
                      nbuffers=2, buffer_bytes=8, rounds=2)
    assert findings_for(prog, "FG109") == []


def test_fg109_real_sorter_sort_stages_are_clean():
    """Replicating the actual dsort/csort sort stages must lint clean —
    they are the replication targets repro.tune searches over."""
    from repro.bench.harness import run_sort
    from repro.pdm.records import RecordSchema

    run = run_sort("dsort", "uniform", RecordSchema.paper_16(),
                   n_nodes=2, n_per_node=512, seed=0,
                   tune={"sort_replicas": 2})
    assert run.verified


# -- FG110, FG111: the effect-analysis rules --------------------------------

def shared_counter_prog(**kwargs):
    prog = fresh_prog(**kwargs)
    state = {"count": 0}

    def bump_a(ctx, buf):
        state["count"] += 1
        return buf

    def bump_b(ctx, buf):
        state["count"] += 1
        return buf

    prog.add_pipeline("a", [Stage.map("bump_a", bump_a)],
                      nbuffers=2, buffer_bytes=16, rounds=4)
    prog.add_pipeline("b", [Stage.map("bump_b", bump_b)],
                      nbuffers=2, buffer_bytes=16, rounds=4)
    return prog


def test_fg110_flags_cross_pipeline_shared_write():
    found = findings_for(shared_counter_prog(), "FG110")
    assert found and found[0].severity == Severity.WARNING
    assert "state['count']" in found[0].message
    assert "bump_a" in found[0].message and "bump_b" in found[0].message


def test_fg110_respects_lint_ignore():
    prog = shared_counter_prog(lint_ignore={"FG110"})
    assert not any(f.rule_id == "FG110" for f in prog.lint())


def test_fg110_clean_on_disjoint_state():
    prog = fresh_prog()
    mine = {"count": 0}
    yours = {"count": 0}

    def bump_a(ctx, buf):
        mine["count"] += 1
        return buf

    def bump_b(ctx, buf):
        yours["count"] += 1
        return buf

    prog.add_pipeline("a", [Stage.map("bump_a", bump_a)],
                      nbuffers=2, buffer_bytes=16, rounds=4)
    prog.add_pipeline("b", [Stage.map("bump_b", bump_b)],
                      nbuffers=2, buffer_bytes=16, rounds=4)
    assert findings_for(prog, "FG110") == []


def test_fg111_flags_escaping_buffer_alias():
    stash = []

    def keeper(ctx, buf):
        stash.append(buf)
        return buf

    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("keeper", keeper)],
                      nbuffers=2, buffer_bytes=16, rounds=4)
    found = findings_for(prog, "FG111")
    assert found and found[0].severity == Severity.WARNING
    assert "alias" in found[0].message


def test_fg111_clean_when_the_stage_copies():
    stash = []

    def copier(ctx, buf):
        records = buf.view("u1")
        stash.append(len(records))
        return buf

    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("copier", copier)],
                      nbuffers=2, buffer_bytes=16, rounds=4)
    assert findings_for(prog, "FG111") == []


def test_fg111_silent_on_recovery_pass1(monkeypatch):
    """Recovery pass 1's ``write`` stage keeps ``int()`` copies of its
    buffer's fragment tags and ``records.copy()``: no alias escapes."""
    from repro.faults import FaultPlan, run_chaos_dsort
    from repro.recover import RecoverPolicy

    started = []
    real_start = FGProgram.start

    def start(self):
        started.append(self)
        return real_start(self)

    monkeypatch.setattr(FGProgram, "start", start)
    run_chaos_dsort(n_nodes=2, records_per_node=500, seed=42,
                    plan=FaultPlan(seed=42), recover=RecoverPolicy(),
                    trace=False)
    pass1 = [prog for prog in started if "-p1@" in prog.name]
    assert pass1
    for prog in pass1:
        assert "write" in [s.name for p in prog.pipelines for s in p.stages]
        assert [f for f in prog.lint() if f.rule_id == "FG111"] == []


def test_fg110_flags_eos_declarer_touching_peer_state():
    # what the retired FG113 reported: the end-of-stream declarer's
    # shared write against a pipeline peer's read is an FG110 pair
    prog = fresh_prog()
    state = {"done": 0}

    def recv(ctx):
        state["done"] += 1
        ctx.convey_caboose(ctx.pipelines[0])

    def consume(ctx, buf):
        if state["done"]:
            return buf
        return buf

    prog.add_pipeline("p", [Stage.source_driven("recv", recv),
                            Stage.map("consume", consume)],
                      nbuffers=2, buffer_bytes=16, rounds=None)
    (found,) = findings_for(prog, "FG110")
    assert found.stage == "recv"
    assert "'recv'" in found.message and "'consume'" in found.message
    assert "state['done']" in found.message


def test_fg110_clean_when_the_declarer_keeps_state_private():
    prog = fresh_prog()
    state = {"done": 0}

    def recv(ctx):
        state["done"] += 1
        ctx.convey_caboose(ctx.pipelines[0])

    prog.add_pipeline("p", [Stage.source_driven("recv", recv),
                            Stage.map("consume", ok_map)],
                      nbuffers=2, buffer_bytes=16, rounds=None)
    assert findings_for(prog, "FG110") == []


# -- suppression-list hygiene ------------------------------------------------

def test_normalize_rule_ids_strips_and_uppercases():
    from repro.check.linter import normalize_rule_ids
    assert normalize_rule_ids([" fg104 ", "FG105", ""]) \
        == {"FG104", "FG105"}


def test_normalize_rule_ids_warns_on_unknown_id():
    from repro.check.linter import normalize_rule_ids
    with pytest.warns(UserWarning, match="unknown lint rule id 'FG999'"):
        assert normalize_rule_ids(["fg999"]) == {"FG999"}


def test_lint_ignore_parameter_warns_on_unknown_id():
    with pytest.warns(UserWarning, match="FGProgram\\(lint_ignore=.*FG999"):
        fresh_prog(lint_ignore={"FG999"})


def test_env_ignore_warns_on_unknown_id(monkeypatch):
    monkeypatch.setenv("REPRO_LINT_IGNORE", "fg104, nope")
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)
    with pytest.warns(UserWarning, match="REPRO_LINT_IGNORE.*'NOPE'"):
        assert prog.lint() == []
