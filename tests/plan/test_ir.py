"""Shared graph IR tests: the one walk linter, planner, and prov use.

The IR's two load-bearing models are the replica-expanded depth (FG101's
input) and the edge-wise channel capacities (FG108's input); both are
pinned here directly, independent of any linter rule.
"""

import pytest

from repro.core import FGProgram, Stage
from repro.plan import ProgramGraph
from repro.sim import VirtualTimeKernel


def ok_map(ctx, buf):
    return buf


def fresh_prog(**kwargs):
    return FGProgram(VirtualTimeKernel(), name="ir-test", **kwargs)


def test_from_program_captures_declared_structure():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("a", ok_map),
                            Stage.source_driven("b", lambda ctx: None)],
                      nbuffers=3, buffer_bytes=64, rounds=5,
                      channel_capacity=2)
    graph = ProgramGraph.from_program(prog)
    assert graph.name == "ir-test"
    (p,) = graph.pipelines
    assert [n.name for n in p.stages] == ["a", "b"]
    assert [n.style for n in p.stages] == ["map", "full"]
    assert (p.nbuffers, p.buffer_bytes, p.rounds) == (3, 64, 5)
    assert p.channel_capacity == 2
    doc = p.canonical()
    assert (doc["pool_grown"], doc["pool_retired"]) == (0, 0)


def test_effective_depth_expands_replicas():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("a", ok_map),
                            Stage.map("b", ok_map),
                            Stage.map("c", ok_map)],
                      nbuffers=6, buffer_bytes=8, rounds=4,
                      replicas={"b": 3})
    (p,) = ProgramGraph.from_program(prog).pipelines
    # 3 declared stages, but b runs as 3 copies + a sequencer
    assert p.effective_depth == 6
    node = p.stages[1]
    assert node.replicated and node.replica_count == 3


def test_effective_depth_without_replicas_is_stage_count():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map(f"s{i}", ok_map) for i in range(4)],
                      nbuffers=4, buffer_bytes=8, rounds=1)
    (p,) = ProgramGraph.from_program(prog).pipelines
    assert p.effective_depth == 4


def _chain_ir(*, channel_capacity, replicas=None, virtual_mid=False,
              nbuffers=4):
    prog = fresh_prog()
    mid = (Stage.map("m", ok_map, virtual=True) if virtual_mid
           else Stage.map("m", ok_map))
    prog.add_pipeline("p", [Stage.map("s", ok_map), mid,
                            Stage.map("t", ok_map)],
                      nbuffers=nbuffers, buffer_bytes=8, rounds=4,
                      channel_capacity=channel_capacity,
                      replicas=replicas)
    (p,) = ProgramGraph.from_program(prog).pipelines
    return p


def test_edge_capacity_bounded_chain():
    p = _chain_ir(channel_capacity=1)
    assert p.edge_capacity(1) == 1
    assert p.edge_capacity(2) == 1
    # two bounded hops: 1 parked per edge + 1 held by the middle stage
    assert p.chain_parking(0, 2) == 3


def test_chain_parking_rendezvous_edges_park_nothing():
    p = _chain_ir(channel_capacity=0)
    # cap-0 edges park zero; only the middle stage's held buffer counts
    assert p.chain_parking(0, 2) == 1
    assert p.chain_parking(0, 1) == 0


def test_chain_parking_unbounded_pipeline_is_none():
    p = _chain_ir(channel_capacity=None)
    assert p.edge_capacity(1) is None
    assert p.chain_parking(0, 2) is None


def test_edge_behind_replicated_stage_is_unbounded():
    p = _chain_ir(channel_capacity=1, replicas={"m": 2})
    assert p.edge_capacity(1) == 1  # into the replicas: still bounded
    assert p.edge_capacity(2) is None  # reorder channel to the sequencer
    assert p.chain_parking(0, 2) is None


def test_edge_into_virtual_stage_is_unbounded():
    p = _chain_ir(channel_capacity=1, virtual_mid=True)
    assert p.edge_capacity(1) is None  # the group's shared queue
    assert p.chain_parking(0, 2) is None


def test_index_of_uses_identity():
    prog = fresh_prog()
    a, b = Stage.map("x", ok_map), Stage.map("x", ok_map)
    prog.add_pipeline("p", [a, b], nbuffers=2, buffer_bytes=8, rounds=1)
    (p,) = ProgramGraph.from_program(prog).pipelines
    assert p.index_of(a) == 0
    assert p.index_of(b) == 1
    with pytest.raises(ValueError):
        p.index_of(Stage.map("x", ok_map))


def test_intersections_report_shared_stages_in_order():
    prog = fresh_prog()
    shared = Stage.source_driven("shared", lambda ctx: None)
    only_p = Stage.map("only_p", ok_map)
    prog.add_pipeline("p", [only_p, shared], nbuffers=2, buffer_bytes=8,
                      rounds=1)
    prog.add_pipeline("q", [shared], nbuffers=2, buffer_bytes=8, rounds=1)
    graph = ProgramGraph.from_program(prog)
    ((stage, pipes),) = graph.intersections()
    assert stage is shared
    assert [p.name for p in pipes] == ["p", "q"]
    assert graph.canonical()["intersections"] == [["shared", ["p", "q"]]]


def test_canonical_covers_every_structural_axis():
    prog = fresh_prog()
    prog.add_pipeline("p", [Stage.map("a", ok_map),
                            Stage.map("b", ok_map)],
                      nbuffers=2, buffer_bytes=16, rounds=3,
                      replicas={"b": 2})
    doc = ProgramGraph.from_program(prog).canonical()
    assert set(doc) == {"name", "pipelines", "intersections", "plan"}
    assert doc["plan"] is None
    (p,) = doc["pipelines"]
    assert set(p) == {"name", "stages", "nbuffers", "buffer_bytes",
                      "rounds", "aux_buffers", "channel_capacity",
                      "pool_grown", "pool_retired"}
    assert p["stages"][1] == {"name": "b", "style": "map", "replicas": 2,
                              "parallel_safety": "pure"}


def test_fingerprint_is_deterministic_across_constructions():
    def build():
        prog = fresh_prog()
        prog.add_pipeline("p", [Stage.map("a", ok_map)],
                          nbuffers=2, buffer_bytes=8, rounds=1)
        return ProgramGraph.from_program(prog).fingerprint()

    assert build() == build()
