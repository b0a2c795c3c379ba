"""Feedback-controller tests: policy hysteresis, end-to-end control.

The end-to-end tests drive a compute-bound demo pipeline: a fast feed
stage in front of a slow replicated work stage, so the work stage's
inbound channel backlogs and replication genuinely shortens the run.
"""

import pytest

from repro.core import FGProgram, Stage
from repro.errors import ReproError
from repro.sim import VirtualTimeKernel
from repro.tune import (
    BacklogPolicy,
    PoolSignal,
    StageSignal,
    TuneAction,
    TuneController,
    TuneSample,
)


# -- BacklogPolicy unit tests ------------------------------------------------

def stage_sig(backlog=2.0, busy=1.0, replicas=1, window=1.0):
    wait = (1.0 - busy) * window * max(1, replicas)
    return StageSignal(pipeline="p", stage="work", replicas=replicas,
                       accepts=10.0, wait_seconds=wait, backlog=backlog,
                       backlog_limit=4.0, window=window)


def pool_sig(nbuffers=4, in_flight=4.0):
    return PoolSignal(pipeline="p", nbuffers=nbuffers, in_flight=in_flight)


def sample(stages=(), pools=(), t0=0.0, t1=1.0):
    return TuneSample(t0, t1, tuple(stages), tuple(pools))


def test_policy_waits_out_patience_then_replicates():
    policy = BacklogPolicy(patience=2, cooldown=0)
    assert policy.decide(sample(stages=[stage_sig()])) == []
    actions = policy.decide(sample(stages=[stage_sig()]))
    assert [a.kind for a in actions] == ["add_replica"]
    assert actions[0].stage == "work"
    assert "backlog" in actions[0].reason


def test_policy_cooldown_blocks_back_to_back_actions():
    policy = BacklogPolicy(patience=1, cooldown=2)
    assert [a.kind for a in policy.decide(sample(stages=[stage_sig()]))] \
        == ["add_replica"]
    # the cooldown window blocks the immediately following sample, then
    # the (re-earned) streak makes the stage eligible again
    assert policy.decide(sample(stages=[stage_sig()])) == []
    assert [a.kind for a in policy.decide(sample(stages=[stage_sig()]))] \
        == ["add_replica"]


def test_policy_respects_replica_cap():
    policy = BacklogPolicy(patience=1, cooldown=0, max_replicas=2)
    assert policy.decide(sample(stages=[stage_sig(replicas=2)])) == []


def test_policy_replicates_only_the_busiest_candidate():
    policy = BacklogPolicy(patience=1, cooldown=0)
    low = StageSignal(pipeline="p", stage="cold", replicas=1, accepts=5.0,
                      wait_seconds=0.4, backlog=2.0, backlog_limit=4.0,
                      window=1.0)
    hot = stage_sig(busy=1.0)
    actions = policy.decide(sample(stages=[low, hot]))
    assert [a.stage for a in actions] == ["work"]


def test_policy_ignores_idle_or_unbacklogged_stages():
    policy = BacklogPolicy(patience=1, cooldown=0)
    assert policy.decide(sample(stages=[stage_sig(backlog=0.2)])) == []
    assert policy.decide(sample(stages=[stage_sig(busy=0.2)])) == []


def test_policy_grows_a_starved_pool():
    policy = BacklogPolicy(patience=2, cooldown=0)
    assert policy.decide(sample(pools=[pool_sig()])) == []
    actions = policy.decide(sample(pools=[pool_sig()]))
    assert [a.kind for a in actions] == ["add_buffers"]
    assert "starved" in actions[0].reason


def test_policy_pool_cap_blocks_growth():
    policy = BacklogPolicy(patience=1, cooldown=0, max_buffers=4)
    assert policy.decide(sample(pools=[pool_sig(nbuffers=4)])) == []


def test_policy_shrink_never_goes_below_attach_floor():
    policy = BacklogPolicy(patience=1, cooldown=0, shrink=True)
    idle = pool_sig(nbuffers=4, in_flight=0.5)
    # the first sample records nbuffers=4 as the floor: never shrinks
    for _ in range(6):
        assert policy.decide(sample(pools=[idle])) == []
    # a pool that grew above its floor does shrink once idle long enough
    grown = pool_sig(nbuffers=6, in_flight=0.5)
    acted = []
    for _ in range(3):
        acted.extend(policy.decide(sample(pools=[grown])))
    assert acted and all(a.kind == "retire_buffers" for a in acted)


def test_policy_validates_hysteresis_parameters():
    with pytest.raises(ReproError):
        BacklogPolicy(patience=0)
    with pytest.raises(ReproError):
        BacklogPolicy(cooldown=-1)


# -- end-to-end control ------------------------------------------------------

def run_demo(*, controlled, rounds=24, work_time=0.02, interval=0.03):
    """A fast feed stage ahead of a slow replicated work stage."""
    kernel = VirtualTimeKernel()
    kernel.enable_metrics()
    prog = FGProgram(kernel, name="demo")

    def feed(ctx, buf):
        return buf

    def work(ctx, buf):
        kernel.sleep(work_time)
        return buf

    prog.add_pipeline(
        "p", [Stage.map("feed", feed), Stage.map("work", work)],
        nbuffers=4, buffer_bytes=8, rounds=rounds,
        replicas={"work": 1})

    controller = None

    def driver():
        nonlocal controller
        prog.start()
        if controlled:
            controller = TuneController(
                prog, interval,
                policy=BacklogPolicy(patience=1, cooldown=0,
                                     max_replicas=4))
            controller.start()
        prog.wait()

    kernel.spawn(driver, name="driver")
    kernel.run()
    return kernel.now(), prog, controller


def test_controller_shortens_a_compute_bound_run():
    base_time, _, _ = run_demo(controlled=False)
    tuned_time, prog, controller = run_demo(controlled=True)
    assert tuned_time < base_time
    kinds = [d.action.kind for d in controller.decisions if d.applied]
    assert "add_replica" in kinds
    (rset,) = prog.replica_sets()
    assert rset.total > 1


def test_controlled_run_is_deterministic():
    def snapshot():
        t, _, controller = run_demo(controlled=True)
        return t, [(d.time, d.action.kind, d.applied)
                   for d in controller.decisions]

    assert snapshot() == snapshot()


def test_controller_records_decisions_in_metrics_and_trace():
    _, prog, controller = run_demo(controlled=True)
    registry = prog.kernel.metrics
    applied = [d for d in controller.decisions if d.applied]
    assert registry.get("tune.decisions").value == len(controller.decisions)
    tracer = getattr(prog.kernel, "tracer", None)
    if tracer is not None:
        tuned = [ev for ev in tracer.events if ev.kind == "tune"]
        assert len(tuned) >= len(applied)


def test_controller_requires_started_program_and_metrics():
    kernel = VirtualTimeKernel()
    kernel.enable_metrics()
    prog = FGProgram(kernel, name="demo")
    prog.add_pipeline("p", [Stage.map("m", lambda ctx, buf: buf)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    controller = TuneController(prog, 0.01)
    with pytest.raises(ReproError, match="started"):
        controller.start()

    kernel2 = VirtualTimeKernel()  # no metrics enabled
    prog2 = FGProgram(kernel2, name="demo2")
    prog2.add_pipeline("p", [Stage.map("m", lambda ctx, buf: buf)],
                       nbuffers=2, buffer_bytes=8, rounds=1)

    failures = []

    def driver():
        prog2.start()
        try:
            TuneController(prog2, 0.01).start()
        except ReproError as exc:
            failures.append(str(exc))
        prog2.wait()

    kernel2.spawn(driver, name="driver")
    kernel2.run()
    assert failures and "metrics" in failures[0]


def test_controller_rejects_bad_interval_and_double_start():
    kernel = VirtualTimeKernel()
    kernel.enable_metrics()
    prog = FGProgram(kernel, name="demo")
    prog.add_pipeline("p", [Stage.map("m", lambda ctx, buf: buf)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    with pytest.raises(ReproError):
        TuneController(prog, 0.0)

    started = []

    def driver():
        prog.start()
        controller = TuneController(prog, 0.01)
        controller.start()
        try:
            controller.start()
        except ReproError as exc:
            started.append(str(exc))
        prog.wait()

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert started and "already started" in started[0]


def test_controller_refuses_to_replicate_a_shared_state_writer():
    # the effect analysis classifies `work` as WRITE_SHARED: adding a
    # copy would race on state['n'], so apply() must reject the action
    # regardless of what the policy decided
    kernel = VirtualTimeKernel()
    kernel.enable_metrics()
    prog = FGProgram(kernel, name="unsafe-demo",
                     lint_ignore={"FG109", "FG110"})
    state = {"n": 0}

    def work(ctx, buf):
        state["n"] += 1
        return buf

    prog.add_pipeline("p", [Stage.map("work", work)],
                      nbuffers=4, buffer_bytes=8, rounds=4,
                      replicas={"work": 1})
    results = []

    def driver():
        prog.start()
        controller = TuneController(prog, 0.01)
        results.append(controller.apply(TuneAction(
            "add_replica", "p", stage="work", reason="backlog")))
        results.append(controller)
        prog.wait()

    kernel.spawn(driver, name="driver")
    kernel.run()
    applied, controller = results
    assert applied is False
    assert controller.decisions[0].applied is False
    assert kernel.metrics.counter("tune.add_replica.unsafe").value == 1


def test_controller_refuses_to_replicate_a_partial_carrying_state():
    # state handed in through functools.partial is invisible to the
    # bytecode scan (the function sees a parameter); it used to classify
    # ``pure`` and replicate.  The verdict is read afresh per action —
    # the controller keeps no id()-keyed cache of it.
    import functools

    kernel = VirtualTimeKernel()
    kernel.enable_metrics()
    prog = FGProgram(kernel, name="partial-demo", lint_ignore={"FG109"})

    def work(seen, ctx, buf):
        seen.append(buf.round)
        return buf

    prog.add_pipeline("p", [Stage.map("work", functools.partial(work, []))],
                      nbuffers=4, buffer_bytes=8, rounds=4,
                      replicas={"work": 1})
    results = []

    def driver():
        prog.start()
        controller = TuneController(prog, 0.01)
        assert not hasattr(controller, "_safety_cache")
        results.append(controller.apply(TuneAction(
            "add_replica", "p", stage="work", reason="backlog")))
        prog.wait()

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert results == [False]
    assert kernel.metrics.counter("tune.add_replica.unsafe").value == 1


def test_controller_still_replicates_pure_stages():
    _, prog, controller = run_demo(controlled=True)
    assert any(d.action.kind == "add_replica" and d.applied
               for d in controller.decisions)
