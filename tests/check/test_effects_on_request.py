"""``start()`` runs the structural lint rules only; the effect analysis
runs on request.

The rules that read the effect scan (``dataflow.fn_effects``) for the
whole program, FG110 and FG111, are warnings that never stop a run.
``start()`` skips them unless FGRace is on; a direct ``lint()`` call and
``repro lint`` still run every rule.  Each error a structural rule finds
still raises :class:`~repro.errors.LintError` from ``start()``; FG109
scans a replicated stage and the functions it reaches, and nothing else.
"""

import importlib.util
import os

import pytest

from repro.check import dataflow, lint_program
from repro.core import FGProgram, Stage
from repro.errors import LintError, ProcessFailed, RaceError
from repro.plan.ir import ProgramGraph
from repro.sim import VirtualTimeKernel

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load_fixture(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(FIXTURES, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def refuse_effect_scan(monkeypatch, allow=()):
    """Make any effect scan fail the test, but one of a function in
    ``allow``."""
    scan, allowed = dataflow.fn_effects, {id(fn) for fn in allow}

    def refuse(fn, *args, **kwargs):
        if id(fn) not in allowed:
            raise AssertionError("the effect analysis ran")
        return scan(fn, *args, **kwargs)

    monkeypatch.setattr(dataflow, "fn_effects", refuse)


def ok_map(ctx, buf):
    return buf


def eos_full(ctx):
    while True:
        buf = ctx.accept()
        if buf.is_caboose:
            ctx.forward(buf)
            return
        ctx.convey(buf)


def test_start_runs_no_effect_scan(monkeypatch):
    refuse_effect_scan(monkeypatch)
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="plain", race_detect=False)
    seen = []

    def record(ctx, buf):
        seen.append(buf.round)  # a shared write FG110 would read
        return buf

    prog.add_pipeline("p", [Stage.map("a", ok_map),
                            Stage.map("b", record)],
                      nbuffers=1, buffer_bytes=8, rounds=3)  # FG101
    assert kernel.provenance is None and kernel.race is None
    kernel.spawn(prog.run, name="main")
    kernel.run()
    assert seen == [0, 1, 2]
    assert [f.rule_id for f in prog.lint_findings] == ["FG101"]


def test_lint_still_reports_fg110_on_the_race_fixture():
    prog = load_fixture("race_defect").build(VirtualTimeKernel())
    flagged = [f for f in prog.lint() if f.rule_id == "FG110"]
    assert flagged and "state['count']" in flagged[0].message
    assert flagged == [f for f in prog.lint_findings
                       if f.rule_id == "FG110"]


def test_race_detection_still_raises_on_the_race_fixture(monkeypatch):
    monkeypatch.setenv("REPRO_RACE", "1")
    kernel = VirtualTimeKernel()
    prog = load_fixture("race_defect").build(kernel)
    kernel.spawn(prog.run, name="main")
    with pytest.raises(ProcessFailed) as exc_info:
        kernel.run()
    cause = exc_info.value.original
    while cause is not None and not isinstance(cause, RaceError):
        cause = getattr(cause, "original", None) or cause.__cause__
    assert isinstance(cause, RaceError)


# -- every structural error still raises from start() ------------------------

def _cycle(prog):
    a = Stage.source_driven("a", eos_full)
    b = Stage.source_driven("b", eos_full)
    prog.add_pipeline("p", [a, b], nbuffers=2, buffer_bytes=8, rounds=1)
    prog.add_pipeline("q", [b, a], nbuffers=2, buffer_bytes=8, rounds=1)


def _unbound(prog):
    prog.add_pipeline("p", [Stage.source_driven("later", None)],
                      nbuffers=1, buffer_bytes=8, rounds=1)


def _arity(prog):
    prog.add_pipeline("p", [Stage.map("m", lambda ctx: None)],
                      nbuffers=1, buffer_bytes=8, rounds=1)


def _no_declarer(prog):
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=None)


def _declarer_not_first(prog):
    def declares(ctx):
        ctx.convey_caboose(ctx.pipelines[0])

    prog.add_pipeline("p", [Stage.map("blind", ok_map),
                            Stage.source_driven("d", declares)],
                      nbuffers=2, buffer_bytes=8, rounds=None)


def _bad_hook(prog):
    prog.add_pipeline("p", [Stage.map("m", ok_map)],
                      nbuffers=1, buffer_bytes=8, rounds=1)
    prog.on_pipeline_failure = lambda exc: None


def _bounded_chain(prog):
    s = Stage.source_driven("s", eos_full)
    t = Stage.source_driven("t", eos_full)
    prog.add_pipeline("p", [s, t], nbuffers=2, buffer_bytes=8,
                      rounds=1, channel_capacity=0)
    prog.add_pipeline("q", [s, t], nbuffers=2, buffer_bytes=8, rounds=1)


def _replicated_state(prog):
    state = {"n": 0}

    def work(ctx, buf):
        state["n"] += 1
        return buf

    prog.add_pipeline("p", [Stage.map("work", work),
                            Stage.map("sink", ok_map)],
                      nbuffers=4, buffer_bytes=8, rounds=4,
                      replicas={"work": 2})


STRUCTURAL_ERRORS = {
    "FG102": _cycle,
    "FG103/unbound": _unbound,
    "FG103/arity": _arity,
    "FG104": _no_declarer,
    "FG105": _declarer_not_first,
    "FG107": _bad_hook,
    "FG108": _bounded_chain,
    "FG109": _replicated_state,
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL_ERRORS))
def test_structural_errors_raise_from_start_without_the_scan(
        case, monkeypatch):
    def build():
        prog = FGProgram(VirtualTimeKernel(), name="lintee",
                         race_detect=False)
        STRUCTURAL_ERRORS[case](prog)
        return prog

    errors = [f for f in lint_program(build()) if f.is_error]
    assert {f.rule_id for f in errors} == {case.split("/")[0]}
    prog = build()
    # FG109 scans what a replicated stage reaches; nothing else is scanned
    refuse_effect_scan(monkeypatch, allow=[
        fn for p in ProgramGraph.from_program(prog).pipelines
        for node in p.stages if node.replicated
        for fn in dataflow.reachable_functions(node.stage.fn)])
    with pytest.raises(LintError) as exc_info:
        prog.start()
    assert [f for f in exc_info.value.findings if f.is_error] == errors


def test_the_lint_defect_fixture_raises_from_start(monkeypatch):
    refuse_effect_scan(monkeypatch)
    with pytest.raises(ProcessFailed) as exc_info:
        load_fixture("lint_defect").main()
    assert isinstance(exc_info.value.original, LintError)
    assert "FG104" in str(exc_info.value.original)
