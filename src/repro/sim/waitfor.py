"""Wait-for-graph analysis shared by the kernel and the static linter.

A wait-for graph has one node per actor (a kernel process, or a stage in
the static analysis) and a directed edge ``a -> b`` meaning "``a`` cannot
make progress until ``b`` does".  A cycle in the graph is a deadlock (at
runtime) or a proof that one is reachable (statically).

Two clients:

* :class:`~repro.sim.virtual.VirtualTimeKernel` builds the graph over
  blocked processes when it detects a deadlock — edges come from each
  channel's registered producer/consumer process names — and appends the
  concrete wait cycle to the :class:`~repro.errors.DeadlockError` report.
* The FG107 lint rule (:mod:`repro.check.linter`) builds the graph over
  stages of intersecting pipelines with bounded channels and reports the
  cycle that a full channel chain would close.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.sim.channel import Channel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Process

__all__ = ["WaitForGraph", "runtime_wait_cycle"]


class WaitForGraph:
    """A small directed graph with labelled edges and cycle search."""

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._labels: dict[tuple[str, str], str] = {}

    def add_edge(self, src: str, dst: str, label: str = "") -> None:
        """Record that ``src`` waits on ``dst`` (no-op on self-edges)."""
        if src == dst:
            return
        self._edges.setdefault(src, set()).add(dst)
        self._edges.setdefault(dst, set())
        if label:
            self._labels.setdefault((src, dst), label)

    def label(self, src: str, dst: str) -> str:
        """The label recorded for edge ``src -> dst`` (may be empty)."""
        return self._labels.get((src, dst), "")

    def find_cycle(self) -> Optional[list[str]]:
        """Return one cycle as ``[a, b, ..., a]``, or None when acyclic.

        Iterative DFS with three-color marking; deterministic because
        neighbours are visited in sorted order.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in self._edges}
        parent: dict[str, str] = {}
        for root in sorted(self._edges):
            if color[root] != WHITE:
                continue
            stack: list[tuple[str, Iterable[str]]] = [
                (root, iter(sorted(self._edges[root])))]
            color[root] = GRAY
            while stack:
                node, neighbours = stack[-1]
                advanced = False
                for nxt in neighbours:
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        parent[nxt] = node
                        stack.append((nxt, iter(sorted(self._edges[nxt]))))
                        advanced = True
                        break
                    if color[nxt] == GRAY:
                        cycle = [nxt]
                        cur = node
                        while cur != nxt:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.append(nxt)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def render_cycle(self, cycle: list[str]) -> str:
        """Human-readable ``a -> b -> a`` line with edge labels."""
        parts = [cycle[0]]
        for src, dst in zip(cycle, cycle[1:]):
            lbl = self.label(src, dst)
            arrow = f" -[{lbl}]-> " if lbl else " -> "
            parts.append(f"{arrow}{dst}")
        return "".join(parts)


def runtime_wait_cycle(blocked: "Iterable[Process]") -> Optional[str]:
    """Extract a concrete wait cycle from blocked kernel processes.

    Each blocked process whose park record is ``(channel, how)`` — it is
    parked on a :class:`~repro.sim.channel.Channel` (:mod:`repro.sim.kernel`,
    module docstring) — waits on the processes registered as that
    channel's counterparties: its producers when ``how`` is ``"get"``,
    its consumers when it is ``"put"`` on a full channel.  Only edges
    between *blocked* processes matter — a live runnable counterparty
    would break the cycle.  Returns the rendered cycle line, or None when
    the deadlock is not channel-shaped (e.g. unregistered channels,
    resources, mailboxes, joins).
    """
    blocked = list(blocked)
    by_name = {p.name: p for p in blocked}
    graph = WaitForGraph()
    for proc in blocked:
        wait = proc._waiting_on
        if not (isinstance(wait, tuple) and isinstance(wait[0], Channel)):
            continue
        channel, how = wait
        if how == "get":
            counterparties = channel.producers
            verb = "awaiting data on"
        else:
            counterparties = channel.consumers
            verb = "awaiting space in"
        for name in counterparties:
            if name in by_name and name != proc.name:
                graph.add_edge(proc.name, name,
                               f"{verb} {channel.name}")
    cycle = graph.find_cycle()
    if cycle is None:
        return None
    return graph.render_cycle(cycle)
