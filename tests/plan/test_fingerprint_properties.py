"""Fingerprint properties over the shared IR.

Two programs that can behave differently must fingerprint differently,
and an applied plan is part of the identity too.  And the pipeline
lint -> plan -> lint must be a fixed point: applying a plan leaves the
stages as declared, so the linter has nothing new to complain about.
"""

import numpy as np

from repro.check import lint_program
from repro.core import FGProgram, Stage
from repro.plan import plan_sort
from repro.prov import stage_graph_fingerprint
from repro.sim import VirtualTimeKernel


def ok_map(ctx, buf):
    return buf


def build(*, nbuffers=3, channel_capacity=None, replicas=None,
          rounds=4, extra=False):
    prog = FGProgram(VirtualTimeKernel(), name="fp-prop")

    def fill(ctx, buf):
        buf.put(np.zeros(4, dtype=np.uint8))
        return buf

    stages = [Stage.map("fill", fill), Stage.map("work", ok_map),
              Stage.map("sink", ok_map)]
    if extra:
        stages.append(Stage.map("tail", ok_map))
    prog.add_pipeline("p", stages, nbuffers=nbuffers, buffer_bytes=16,
                      rounds=rounds, channel_capacity=channel_capacity,
                      replicas=replicas)
    return prog


def test_identical_constructions_fingerprint_identically():
    assert stage_graph_fingerprint(build()) == stage_graph_fingerprint(
        build())


def test_any_single_geometry_change_changes_the_fingerprint():
    base = stage_graph_fingerprint(build())
    variants = [
        build(nbuffers=4),
        build(channel_capacity=2),
        build(replicas={"work": 2}),
        build(rounds=5),
        build(extra=True),
    ]
    prints = [stage_graph_fingerprint(v) for v in variants]
    assert base not in prints
    assert len(set(prints)) == len(prints)  # all pairwise distinct


def test_replica_count_is_part_of_the_identity():
    assert (stage_graph_fingerprint(build(replicas={"work": 2}))
            != stage_graph_fingerprint(build(replicas={"work": 3})))


def test_lint_plan_lint_is_a_fixed_point():
    prog = build()
    assert list(lint_program(prog)) == []
    stages = list(prog.pipelines[0].stages)
    before = stage_graph_fingerprint(prog)
    plan = plan_sort("dsort", 2, 1024)
    plan.apply(prog)
    assert prog.pipelines[0].stages == stages
    assert list(lint_program(prog)) == []
    # the stamp is the whole difference: the fingerprint moved, and
    # taking the stamp off moves it back
    assert stage_graph_fingerprint(prog) != before
    prog.applied_plan = None
    assert stage_graph_fingerprint(prog) == before
