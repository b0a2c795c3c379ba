"""Wait-for-graph tests: cycle detection and the runtime deadlock report.

The graph is shared infrastructure: the FG108 lint rule uses it to prove
a bounded-chain deadlock statically, and the virtual-time kernel uses it
to name the cycle when a real deadlock strikes.
"""

import pytest

from repro.core import FGProgram, Stage
from repro.errors import DeadlockError
from repro.sim import Channel, VirtualTimeKernel
from repro.sim.waitfor import WaitForGraph


def test_find_cycle_returns_closed_path():
    g = WaitForGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    cycle = g.find_cycle()
    assert cycle is not None
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b", "c"}


def test_acyclic_graph_has_no_cycle():
    g = WaitForGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    assert g.find_cycle() is None


def test_self_edges_are_ignored():
    g = WaitForGraph()
    g.add_edge("a", "a")
    assert g.find_cycle() is None


def test_render_cycle_includes_edge_labels():
    g = WaitForGraph()
    g.add_edge("a", "b", "needs data from b")
    g.add_edge("b", "a", "needs space from a")
    rendered = g.render_cycle(g.find_cycle())
    assert "a" in rendered and "b" in rendered
    assert "needs" in rendered


def test_deadlock_report_names_the_wait_cycle():
    """A stage hoarding the only buffer deadlocks the pipeline; the
    DeadlockError must now also render who waits on whom."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="dl")

    def greedy(ctx):
        ctx.accept()
        ctx.accept()  # the pool has one buffer; this can never arrive

    prog.add_pipeline("p", [Stage.source_driven("greedy", greedy)],
                      nbuffers=1, buffer_bytes=8, rounds=2)
    kernel.spawn(prog.run, name="driver")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    assert str(exc_info.value) == (
        "deadlock: all live processes are blocked and no timed event is "
        "pending\n"
        "  - driver: waiting on join(dl.p.source)\n"
        "  - dl.p.source: waiting on get <- dl.p.recycle "
        "(occupancy 0/inf, pipeline dl.p)\n"
        "  - dl.p.sink: waiting on get <- dl.p->sink "
        "(occupancy 0/inf, pipeline dl.p)\n"
        "  - dl.greedy: waiting on get <- dl.p->greedy "
        "(occupancy 0/inf, pipeline dl.p)\n"
        "  wait-for cycle: dl.greedy -[awaiting data on dl.p->greedy]-> "
        "dl.p.source -[awaiting data on dl.p.recycle]-> "
        "dl.p.sink -[awaiting data on dl.p->sink]-> dl.greedy")


def test_deadlock_report_names_a_cycle_of_full_channels():
    """Two processes each putting into a rendezvous channel only the
    other drains: the cycle's edges wait for space, not data."""
    kernel = VirtualTimeKernel()
    ab = Channel(kernel, capacity=0, name="ab")
    ba = Channel(kernel, capacity=0, name="ba")
    ab.producers, ab.consumers = {"a"}, {"b"}
    ba.producers, ba.consumers = {"b"}, {"a"}
    kernel.spawn(ab.put, 1, name="a")
    kernel.spawn(ba.put, 2, name="b")
    with pytest.raises(DeadlockError) as exc_info:
        kernel.run()
    assert str(exc_info.value) == (
        "deadlock: all live processes are blocked and no timed event is "
        "pending\n"
        "  - a: waiting on put -> ab (occupancy 0/0)\n"
        "  - b: waiting on put -> ba (occupancy 0/0)\n"
        "  wait-for cycle: a -[awaiting space in ab]-> "
        "b -[awaiting space in ba]-> a")
