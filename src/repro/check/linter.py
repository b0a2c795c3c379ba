"""The FG static linter: rule-based analysis of an assembled program.

:meth:`~repro.core.program.FGProgram.start` runs the structural rules
FG101–FG109 (disable with ``FGProgram(lint=False)``).  Error-severity
findings abort ``start()`` with :class:`~repro.errors.LintError`
*before* any process is spawned — turning what would surface as a
mid-run ``DeadlockError`` into a fast, located diagnostic.  The
effect-driven warnings FG110 and FG111 never stop a run, so they run only on
request: a direct :meth:`~repro.core.program.FGProgram.lint` or
:func:`lint_program` call, and every ``start()`` under ``repro lint``
(which arms :data:`COLLECTOR`).

Rule catalog (see docs/ANALYSIS.md for the long-form description):

========  ========  =====================================================
ID        Severity  Checks
========  ========  =====================================================
FG101     warning   buffer pool smaller than the replica-expanded
                    pipeline depth (stall)
FG102     error     cycle in the intersecting-pipeline stage-order graph
FG103     error     stage style/arity contract violation (fn missing,
                    wrong parameter count for its style)
FG104     error     ``rounds=None`` pipeline with no stage that can
                    declare end-of-stream (guaranteed deadlock)
FG105     error     end-of-stream declared downstream of other stages —
                    stages before the declarer never see the caboose
FG106     warning   ``rounds=0`` pipeline (stages never see data)
FG107     error     dangling ``on_pipeline_failure`` hook (not callable,
                    or wrong arity)
FG108     error     bounded channel chain provably deadlock-prone
                    (wait-for-graph analysis over intersecting stages)
FG109     error     replicated stage carries per-round mutable state
                    (the shared writes the effect scan finds in the
                    stage function and the helpers it calls)
FG110     warning   two concurrently-runnable stages (same or
                    intersecting pipelines) write the same shared cell
FG111     warning   an alias of an accepted buffer's data escapes the
                    stage and outlives the convey
========  ========  =====================================================

FG112, FG113 and FG114 are retired and their numbers not reused.

Suppress individual rules per program with
``FGProgram(lint_ignore={"FG101"})`` or globally with
``REPRO_LINT_IGNORE=FG101,FG108``.

Every rule reads the program through the shared graph IR
(:class:`repro.plan.ir.ProgramGraph`) — the same structural view the
planner reads and the provenance fingerprints hash — so structural
features added to the runtime (replication, say) only need to be
modelled once.  FG109–FG111 additionally read the per-stage
effect sets inferred by :mod:`repro.check.dataflow`, the same scan
FGRace's cross-check reads; ``start()`` scans only replicated stages.
"""

from __future__ import annotations

import functools
import inspect
import types
import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from repro.check import dataflow as _dataflow
from repro.check.findings import Finding, LintReport, Rule, Severity
from repro.env import lint_ignore_from_env
from repro.plan.ir import ProgramGraph
from repro.sim.waitfor import WaitForGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program import FGProgram

__all__ = ["RULES", "COLLECTOR", "EFFECTS", "lint_program",
           "ignored_rules", "normalize_rule_ids"]

#: when the ``repro lint`` CLI executes a program file, it points this at
#: a list and every :meth:`FGProgram.lint` pass appends
#: ``(program_name, findings)`` — letting the CLI report findings even
#: from programs that swallow LintError themselves.  While it is armed,
#: ``start()`` runs every rule, not only the structural ones.
COLLECTOR: Optional[list[tuple[str, list[Finding]]]] = None

#: companion collector for ``repro lint --effects``: every lint pass
#: appends ``(program_name, [(pipeline, stage, classification), ...])``
#: with the parallel-safety verdict of every stage.
EFFECTS: Optional[list[tuple[str, list[tuple[str, str, str]]]]] = None


RULES: dict[str, Rule] = {r.rule_id: r for r in [
    Rule("FG101", "pool-smaller-than-depth", Severity.WARNING,
         "a pipeline with fewer buffers than stages cannot keep every "
         "stage busy; the pipeline stalls on buffer recycling"),
    Rule("FG102", "stage-order-cycle", Severity.ERROR,
         "intersecting pipelines order their shared stages "
         "inconsistently; buffers would wait on each other in a cycle"),
    Rule("FG103", "stage-contract", Severity.ERROR,
         "a stage function is missing or does not match its style's "
         "calling convention (map: fn(ctx, buffer); full: fn(ctx))"),
    Rule("FG104", "no-eos-declarer", Severity.ERROR,
         "a rounds=None pipeline has no stage that can call "
         "convey_caboose; the pipeline can never terminate"),
    Rule("FG105", "caboose-unreachable", Severity.ERROR,
         "the end-of-stream declarer is not the first stage; stages "
         "upstream of it never see the caboose and never terminate"),
    Rule("FG106", "zero-rounds", Severity.WARNING,
         "a rounds=0 pipeline emits only the caboose; its stages never "
         "see a data buffer"),
    Rule("FG107", "dangling-failure-hook", Severity.ERROR,
         "on_pipeline_failure is set but is not callable as "
         "hook(stage, pipelines, exc)"),
    Rule("FG108", "bounded-chain-deadlock", Severity.ERROR,
         "a bounded channel chain between stages shared with another "
         "pipeline can absorb the whole buffer pool; the wait-for "
         "graph closes a cycle"),
    Rule("FG109", "replicated-stage-state", Severity.ERROR,
         "a replicated stage mutates state shared across its copies "
         "(closure or global writes); interchangeable replicas would "
         "race on it and the per-round results become order-dependent"),
    Rule("FG110", "cross-stage-write-race", Severity.WARNING,
         "two stages that can hold buffers concurrently (same or "
         "intersecting pipelines) write the same shared cell; under a "
         "parallel backend the result becomes schedule-dependent"),
    Rule("FG111", "conveyed-buffer-escape", Severity.WARNING,
         "a stage stores an alias of its accepted buffer's data where "
         "it outlives the convey; the next owner's writes stay visible "
         "through the stale alias (FGSan only catches this at runtime)"),
]}


def normalize_rule_ids(ids: Iterable[str], *,
                       source: str = "lint_ignore") -> set[str]:
    """Strip/uppercase rule IDs, warning (not silently ignoring) any
    that name no known rule — a typo in a suppression list would
    otherwise disable nothing while looking like it worked."""
    normalized: set[str] = set()
    for raw in ids:
        rule_id = str(raw).strip().upper()
        if not rule_id:
            continue
        if rule_id not in RULES:
            known = f"{min(RULES)}..{max(RULES)}"
            warnings.warn(
                f"{source}: unknown lint rule id {rule_id!r} "
                f"(known rules: {known})",
                stacklevel=3)
        normalized.add(rule_id)
    return normalized


def ignored_rules(extra: Optional[Iterable[str]] = None) -> set[str]:
    """Rule IDs suppressed via ``REPRO_LINT_IGNORE`` plus ``extra``."""
    ignored = normalize_rule_ids(lint_ignore_from_env(),
                                 source="REPRO_LINT_IGNORE")
    if extra:
        ignored |= normalize_rule_ids(extra)
    return ignored


# -- helpers ----------------------------------------------------------------


def _positional_bounds(fn: Callable[..., Any]) -> Optional[tuple[int, float]]:
    """(min, max) positional arguments ``fn`` accepts, or None if
    unknown (builtins and other signature-less callables are skipped)."""
    if type(fn) is types.FunctionType and not fn.__dict__:
        # a plain function — no __wrapped__, __signature__ or
        # partialmethod marker for inspect.signature to follow — says it
        # in its code object; partials, bound methods and callable
        # instances take the inspect path
        code = fn.__code__
        minimum = code.co_argcount - len(fn.__defaults__ or ())
        maximum: float = code.co_argcount
        if code.co_flags & inspect.CO_VARARGS:
            maximum = float("inf")
        return minimum, maximum
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    minimum = 0
    maximum = 0
    for param in sig.parameters.values():
        if param.kind in (param.POSITIONAL_ONLY,
                          param.POSITIONAL_OR_KEYWORD):
            maximum += 1
            if param.default is param.empty:
                minimum += 1
        elif param.kind is param.VAR_POSITIONAL:
            maximum = float("inf")
    return minimum, maximum


def _names_any(funcs: Iterable[Any], names: tuple[str, ...]) -> bool:
    """Does the code of one of ``funcs`` name one of ``names`` (best
    effort, static)?"""
    return any(name in code.co_names for func in funcs
               for code in _dataflow.iter_code_objects(func.__code__)
               for name in names)


def _declares_eos(stage: Any) -> bool:
    """Can ``stage``'s function reach a ``convey_caboose`` call?  Only
    FG104/FG105 ask, about the stages of ``rounds=None`` pipelines,
    through a ``functools.cache`` of this that lives for one pass: the
    walk follows closures and globals, so nothing is kept across
    passes."""
    return stage.fn is not None and _names_any(
        _dataflow.reachable_functions(stage.fn), ("convey_caboose",))


# -- rule implementations ---------------------------------------------------


def _check_pool_depth(prog: "FGProgram",
                      graph: ProgramGraph) -> Iterator[Finding]:
    for p in graph.pipelines:
        depth = p.effective_depth
        if p.nbuffers >= depth:
            continue
        detail = f"{depth} stage(s)"
        if depth != len(p.stages):
            expanded = ", ".join(
                f"{node.name} x{node.replica_count} replicas + sequencer"
                for node in p.stages if node.replicated)
            detail = (f"{depth} concurrent holder(s) once replication "
                      f"expands ({expanded})")
        yield Finding(
            "FG101", Severity.WARNING,
            f"pool of {p.nbuffers} buffer(s) is smaller than the "
            f"pipeline depth of {detail}; at most "
            f"{p.nbuffers} stage(s) can hold data at once",
            program=prog.name, pipeline=p.name)


def _check_stage_order_cycle(prog: "FGProgram",
                             graph: ProgramGraph) -> Iterator[Finding]:
    # paths over disjoint stages cannot close a cycle: only a stage
    # object that occurs twice in the program can
    occurrences = [id(node.stage) for p in graph.pipelines
                   for node in p.stages]
    if len(set(occurrences)) == len(occurrences):
        return
    edges: dict[int, set[int]] = {}
    names: dict[int, str] = {}
    edge_pipelines: dict[tuple[int, int], str] = {}
    for p in graph.pipelines:
        for a, b in zip(p.stages, p.stages[1:]):
            names[id(a.stage)] = a.name
            names[id(b.stage)] = b.name
            edges.setdefault(id(a.stage), set()).add(id(b.stage))
            edges.setdefault(id(b.stage), set())
            edge_pipelines.setdefault((id(a.stage), id(b.stage)), p.name)
    graph = WaitForGraph()
    # stage names may theoretically collide; suffix ids to keep nodes
    # unique, strip them again when rendering
    node = {sid: f"{names[sid]}#{sid}" for sid in edges}
    for src, dsts in edges.items():
        for dst in dsts:
            graph.add_edge(node[src], node[dst])
    cycle = graph.find_cycle()
    if cycle is None:
        return
    display = [n.rsplit("#", 1)[0] for n in cycle]
    back = {v: k for k, v in node.items()}
    pipes = sorted({edge_pipelines[(back[a], back[b])]
                    for a, b in zip(cycle, cycle[1:])
                    if (back[a], back[b]) in edge_pipelines})
    yield Finding(
        "FG102", Severity.ERROR,
        f"stage order cycle {' -> '.join(display)} across pipeline(s) "
        f"{', '.join(pipes)}; a buffer conveyed around this loop waits "
        "on itself",
        program=prog.name, pipeline=pipes[0] if pipes else None,
        stage=display[0])


def _check_stage_contract(prog: "FGProgram",
                          graph: ProgramGraph) -> Iterator[Finding]:
    reported: set[int] = set()
    for p in graph.pipelines:
        for node in p.stages:
            s = node.stage
            if id(s) in reported:
                continue
            if s.fn is None:
                reported.add(id(s))
                yield Finding(
                    "FG103", Severity.ERROR,
                    f"stage {s.name!r} has no function bound (a "
                    "source-driven stage built with fn=None must be "
                    "assigned one before the program starts)",
                    program=prog.name, pipeline=p.name, stage=s.name)
                continue
            bounds = _positional_bounds(s.fn)
            if bounds is None:
                continue
            minimum, maximum = bounds
            want = 2 if s.style == "map" else 1
            shape = ("fn(ctx, buffer)" if s.style == "map" else "fn(ctx)")
            if minimum > want or maximum < want:
                reported.add(id(s))
                yield Finding(
                    "FG103", Severity.ERROR,
                    f"{s.style}-style stage {s.name!r} must be callable "
                    f"as {shape}, but its function takes "
                    f"{minimum}..{maximum} positional argument(s)",
                    program=prog.name, pipeline=p.name, stage=s.name)


def _check_eos_declarers(prog: "FGProgram",
                         graph: ProgramGraph) -> Iterator[Finding]:
    eos = functools.cache(_declares_eos)
    for p in graph.pipelines:
        if p.rounds is not None:
            continue
        declarers = [i for i, node in enumerate(p.stages)
                     if eos(node.stage)]
        if not declarers:
            if any(node.style == "full" for node in p.stages):
                # a full-control loop could still declare EOS through
                # state the scan cannot see; don't claim certainty
                continue
            yield Finding(
                "FG104", Severity.ERROR,
                "rounds=None but no stage references convey_caboose; "
                "nothing can ever declare end-of-stream, so the "
                "pipeline cannot terminate",
                program=prog.name, pipeline=p.name)
            continue
        first = min(declarers)
        if first > 0 and not any(eos(node.stage)
                                 or node.style == "full"
                                 for node in p.stages[:first]):
            blind = ", ".join(node.name for node in p.stages[:first])
            yield Finding(
                "FG105", Severity.ERROR,
                f"end-of-stream is declared by stage "
                f"{p.stages[first].name!r} at position {first}; "
                f"upstream stage(s) {blind} never see the caboose and "
                "never terminate",
                program=prog.name, pipeline=p.name,
                stage=p.stages[first].name)


def _check_zero_rounds(prog: "FGProgram",
                       graph: ProgramGraph) -> Iterator[Finding]:
    for p in graph.pipelines:
        if p.rounds == 0:
            yield Finding(
                "FG106", Severity.WARNING,
                "rounds=0: the source emits only the caboose and the "
                "stages never see a data buffer",
                program=prog.name, pipeline=p.name)


def _check_failure_hook(prog: "FGProgram",
                        graph: ProgramGraph) -> Iterator[Finding]:
    hook = prog.on_pipeline_failure
    if hook is None:
        return
    if not callable(hook):
        yield Finding(
            "FG107", Severity.ERROR,
            f"on_pipeline_failure is {type(hook).__name__!s}, not a "
            "callable hook(stage, pipelines, exc)",
            program=prog.name)
        return
    bounds = _positional_bounds(hook)
    if bounds is None:
        return
    minimum, maximum = bounds
    if minimum > 3 or maximum < 3:
        yield Finding(
            "FG107", Severity.ERROR,
            "on_pipeline_failure must be callable as "
            f"hook(stage, pipelines, exc), but it takes "
            f"{minimum}..{maximum} positional argument(s)",
            program=prog.name)


def _check_bounded_chains(prog: "FGProgram",
                          graph: ProgramGraph) -> Iterator[Finding]:
    for p in graph.pipelines:
        if p.channel_capacity is None:
            continue  # every edge unbounded: nothing to bound
        for q in graph.pipelines:
            if q is p:
                continue
            q_ids = {id(node.stage) for node in q.stages}
            shared = [node for node in p.stages
                      if id(node.stage) in q_ids]
            for si, s in enumerate(shared):
                for t in shared[si + 1:]:
                    spos_p, tpos_p = p.index_of(s.stage), p.index_of(t.stage)
                    spos_q = q.index_of(s.stage)
                    tpos_q = q.index_of(t.stage)
                    if spos_p > tpos_p or spos_q > tpos_q:
                        continue  # inconsistent order is FG102's job
                    # edge-wise over the IR: a capacity-0 rendezvous
                    # edge parks nothing, and any unbounded edge in the
                    # chain (virtual-group queue, reorder channel
                    # behind a replicated stage) absorbs the whole pool
                    parking = p.chain_parking(spos_p, tpos_p)
                    if parking is None or p.nbuffers <= parking:
                        continue
                    wait = WaitForGraph()
                    wait.add_edge(
                        t.name, s.name,
                        f"awaiting {q.name} data produced via "
                        f"{s.name}")
                    wait.add_edge(
                        s.name, t.name,
                        f"awaiting space in the full {p.name} chain "
                        f"drained by {t.name}")
                    cycle = wait.find_cycle()
                    rendered = (wait.render_cycle(cycle)
                                if cycle else f"{s.name} <-> {t.name}")
                    yield Finding(
                        "FG108", Severity.ERROR,
                        f"{p.nbuffers} buffer(s) circulate but the "
                        f"bounded chain {s.name} -> {t.name} "
                        f"(capacity {p.channel_capacity} per channel) "
                        f"parks at most {parking}; if {t.name!r} is "
                        f"accepting from {q.name!r} the wait-for graph "
                        f"closes a cycle: {rendered}",
                        program=prog.name, pipeline=p.name, stage=s.name)


def _check_replicated_state(prog: "FGProgram",
                            graph: ProgramGraph) -> Iterator[Finding]:
    for p in graph.pipelines:
        for node in p.stages:
            s = node.stage
            if not node.replicated or s.fn is None:
                continue
            funcs = list(_dataflow.reachable_functions(s.fn))
            # the stage itself (what a partial or bound method carries
            # in included), then each helper it reaches, scanned as its
            # own function
            evidence = list(dict.fromkeys(
                f"writes shared {label}"
                for e in map(_dataflow.fn_effects, [s.fn, *funcs[1:]])
                for label in [*sorted(map(str, e.writes)),
                              *e.unresolved_writes]))
            if _names_any(funcs, ("convey", "convey_caboose")):
                evidence.append(
                    "references convey (the replica sequencer owns "
                    "conveyance; replicated stages must only return "
                    "the buffer)")
            if evidence:
                listed = "; ".join(evidence[:3])
                if len(evidence) > 3:
                    listed += f"; and {len(evidence) - 3} more"
                yield Finding(
                    "FG109", Severity.ERROR,
                    f"stage {s.name!r} is declared with replicas but "
                    f"carries per-round mutable state: {listed}. "
                    "Interchangeable copies would race on it; keep the "
                    "stage single or move the state into buffer tags",
                    program=prog.name, pipeline=p.name, stage=s.name)


def _check_effects(prog: "FGProgram",
                   graph: ProgramGraph) -> Iterator[Finding]:
    """FG110/FG111: the effect-analysis rules, sharing one
    :func:`repro.check.dataflow.program_effects` pass."""
    effects = _dataflow.program_effects(graph)
    # FG110: concurrently-runnable stages writing one shared cell.
    # Program-wide scope: every pipeline of one program runs on the same
    # kernel at once, so even disjoint pipelines race on a shared cell.
    seen: set[tuple[frozenset[str], str, str]] = set()
    for c in effects.all_conflicts:
        key = (frozenset((c.stage_a, c.stage_b)), str(c.cell), c.kind)
        if key in seen:
            continue
        seen.add(key)
        where = (f"pipeline {c.pipeline_a!r}"
                 if c.pipeline_a == c.pipeline_b else
                 f"pipelines {c.pipeline_a!r} and "
                 f"{c.pipeline_b!r}")
        yield Finding(
            "FG110", Severity.WARNING,
            f"stages {c.stage_a!r} and {c.stage_b!r} ({where}) both "
            f"touch shared cell {str(c.cell)!r} ({c.kind}) with no "
            "ordering between them; a parallel backend makes the "
            "outcome schedule-dependent",
            program=prog.name, pipeline=c.pipeline_a, stage=c.stage_a)
    # FG111: buffer aliases escaping the stage
    for entry in effects.stages:
        for escape in entry.effects.buffer_escapes:
            yield Finding(
                "FG111", Severity.WARNING,
                f"stage {entry.name!r} {escape}; the alias outlives "
                "the convey, so the next owner's writes remain visible "
                "through it (copy the data instead)",
                program=prog.name, pipeline=entry.pipeline,
                stage=entry.name)


Check = Callable[["FGProgram", ProgramGraph], Iterator[Finding]]

#: the structural rules FG101–FG109, in report order: what ``start()``
#: runs.  ``check(prog, graph)`` yields its findings
STRUCTURAL_CHECKS: tuple[Check, ...] = (
    _check_pool_depth,
    _check_stage_order_cycle,
    _check_stage_contract,
    _check_eos_declarers,
    _check_zero_rounds,
    _check_failure_hook,
    _check_bounded_chains,
    _check_replicated_state,
)

#: every rule, in report order: the structural ones, then the
#: effect-driven warnings FG110 and FG111
CHECKS: tuple[Check, ...] = STRUCTURAL_CHECKS + (_check_effects,)


def lint_program(prog: "FGProgram",
                 ignore: Optional[Iterable[str]] = None, *,
                 graph: Optional[ProgramGraph] = None) -> LintReport:
    """Run every lint rule over ``prog`` and return the report.

    The program does not need to be started; rules operate on the
    declared structure (pipelines, stages, hooks).  ``graph`` is the
    program's IR when the caller already built it.
    """
    return _run_checks(prog, CHECKS, ignore, graph)


def _run_checks(prog: "FGProgram", checks: tuple[Check, ...],
                ignore: Optional[Iterable[str]],
                graph: Optional[ProgramGraph]) -> LintReport:
    """:func:`lint_program` restricted to ``checks`` (:data:`CHECKS`, or
    :data:`STRUCTURAL_CHECKS` for ``start()``)."""
    suppressed = ignored_rules(ignore)
    if graph is None:
        graph = ProgramGraph.from_program(prog)
    report = LintReport()
    for check in checks:
        report.extend(f for f in check(prog, graph)
                      if f.rule_id not in suppressed)
    if EFFECTS is not None:
        EFFECTS.append((prog.name, [
            (p.name, node.name,
             _dataflow.classify_fn(node.stage.fn, style=node.style)
             or "unknown")
            for p in graph.pipelines for node in p.stages]))
    return report
