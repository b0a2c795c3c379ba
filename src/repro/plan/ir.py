"""The shared pipeline-graph IR consumed by linter, planner, and prov.

Before this module existed, three subsystems each walked
:class:`~repro.core.program.FGProgram` internals on their own — the
FG101–FG109 linter, ``prov.fingerprint.program_graph``, and the tuner's
space builders — and drifted apart whenever the runtime grew a new
structural feature (PR 5's stage replication and dynamic pools being the
concrete casualties: FG101 and FG108 reasoned about a stage list that no
longer matched what the program actually spawns).

:class:`ProgramGraph` is the one walk.  It captures the *declared*
structure of a program — pipelines, stages with style / virtual-group /
replica annotations, channel capacities, buffer geometry, and the
intersecting-stage edges — plus the two pieces of structure that only
exist because of PR 5:

* the **replica-expanded depth** of a pipeline
  (:attr:`PipelineIR.effective_depth`): a stage declared with N replicas
  runs as N copies plus a sequencer, each a concurrent buffer holder;
* the **edge-wise channel model** (:meth:`PipelineIR.chain_parking`):
  each inter-stage edge knows its real capacity — the pipeline's bound,
  ``0`` for rendezvous, unbounded for virtual-group shared queues and
  the reorder channel behind a replicated stage.

Everything here is pure data over the declared program; nothing reads
runtime state.  The canonical form (:meth:`ProgramGraph.canonical`) is
what ``prov.fingerprint.program_graph`` now returns.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.dataflow import Effects
    from repro.core.pipeline import Pipeline
    from repro.core.program import FGProgram
    from repro.core.stage import Stage

__all__ = ["PipelineIR", "ProgramGraph", "StageNode"]


@dataclasses.dataclass(frozen=True)
class StageNode:
    """One stage as declared within one pipeline."""

    name: str
    style: str
    virtual: bool
    virtual_group: Optional[str]
    #: declared in the pipeline's ``replicas`` mapping (count 1 included:
    #: it still wires the sequencer and the unbounded reorder channel)
    replicated: bool
    replica_count: int
    #: the underlying Stage object — identity for intersection analysis,
    #: ``fn`` for the linter's bytecode rules; never part of canonical()
    stage: Any = dataclasses.field(compare=False, repr=False)
    #: effect sets of the stage function
    #: (:func:`repro.check.dataflow.stage_effects`), scanned once per
    #: distinct stage object when the graph is built and read — not
    #: re-scanned — by the effect rules and FGRace; None without a
    #: function
    effects: Optional["Effects"] = dataclasses.field(
        default=None, repr=False)

    @property
    def parallel_safety(self) -> Optional[str]:
        """``"pure"`` / ``"read_shared"`` / ``"write_shared"``, or None.
        Part of canonical(), so the provenance fingerprint pins the
        verdict a parallel backend would schedule by."""
        return None if self.effects is None else self.effects.classification

    def canonical(self) -> dict[str, Any]:
        entry: dict[str, Any] = {"name": self.name, "style": self.style}
        if self.virtual:
            entry["virtual_group"] = self.virtual_group
        if self.replicated:
            entry["replicas"] = self.replica_count
        if self.effects is not None:
            entry["parallel_safety"] = self.effects.classification
        return entry


@dataclasses.dataclass
class PipelineIR:
    """One pipeline: its stage chain, pool geometry, and channel bounds."""

    name: str
    stages: list[StageNode]
    nbuffers: int
    buffer_bytes: int
    rounds: Optional[int]
    aux_buffers: bool
    channel_capacity: Optional[int]
    #: recovery-manager annotation ("backup" / "adopted"); None for
    #: ordinary pipelines, and omitted from canonical() when None so
    #: pre-recovery fingerprints are unchanged
    role: Optional[str] = None
    #: the underlying Pipeline object (never part of canonical())
    pipeline: Any = dataclasses.field(default=None, repr=False)

    @property
    def effective_depth(self) -> int:
        """Concurrent buffer holders in the replica-expanded pipeline.

        A plain stage holds one buffer.  A stage declared with N replicas
        expands to N copies plus an order-restoring sequencer — N + 1
        holders where the declared list shows one.  FG101 sizes pools
        against this, not against ``len(stages)``.
        """
        depth = len(self.stages)
        for node in self.stages:
            if node.replicated:
                depth += node.replica_count
        return depth

    def index_of(self, stage: Any) -> int:
        """Position of the underlying stage object (by identity)."""
        for i, node in enumerate(self.stages):
            if node.stage is stage:
                return i
        raise ValueError(
            f"stage {getattr(stage, 'name', stage)!r} is not in "
            f"pipeline {self.name!r}")

    def edge_capacity(self, pos: int) -> Optional[int]:
        """Capacity of the channel feeding ``stages[pos]``; None means
        unbounded (it can absorb any number of parked buffers).

        Assembly gives a virtual stage its group's shared queue and a
        replicated stage an unbounded reorder channel toward its
        sequencer — both unbounded regardless of the pipeline's
        ``channel_capacity``, which is what the pre-IR FG108 analysis
        missed.
        """
        node = self.stages[pos]
        if node.virtual:
            return None
        if pos > 0 and self.stages[pos - 1].replicated:
            return None
        return self.channel_capacity

    def chain_parking(self, spos: int, tpos: int) -> Optional[int]:
        """Buffers the channel chain + intermediate stages between two
        stage positions can absorb, or None when any edge is unbounded.

        Walks the chain edge by edge: each bounded edge parks its
        capacity (a capacity-0 rendezvous edge parks nothing — the
        producer stays blocked *holding* its buffer), and each
        intermediate stage holds its replica-expanded count of buffers
        while working.
        """
        total = 0
        for pos in range(spos + 1, tpos + 1):
            cap = self.edge_capacity(pos)
            if cap is None:
                return None
            total += cap
            if pos < tpos:
                node = self.stages[pos]
                total += node.replica_count if node.replicated else 1
        return total

    def canonical(self) -> dict[str, Any]:
        doc = {
            "name": self.name,
            "stages": [node.canonical() for node in self.stages],
            "nbuffers": self.nbuffers,
            "buffer_bytes": self.buffer_bytes,
            "rounds": self.rounds,
            "aux_buffers": self.aux_buffers,
            "channel_capacity": self.channel_capacity,
            # constant keys: every stage-graph fingerprint and committed
            # golden pins them
            "pool_grown": 0,
            "pool_retired": 0,
        }
        if self.role is not None:
            doc["role"] = self.role
        return doc


@dataclasses.dataclass
class ProgramGraph:
    """The declared structure of one FG program, as shared IR."""

    name: str
    pipelines: list[PipelineIR]
    #: digest of the applied :class:`~repro.plan.plan.Plan` (None when
    #: the program was assembled without a planner pass)
    plan_digest: Optional[str] = None

    @classmethod
    def from_program(cls, program: "FGProgram") -> "ProgramGraph":
        """Build the IR from a (started or not) FGProgram.

        Duck-typed on purpose: this module imports nothing from
        ``repro.core`` at runtime, so the linter, the planner, and the
        fingerprints can all depend on it without import cycles.
        """
        # lazy on purpose: dataflow lives in repro.check, which imports
        # this module — the verdict flows IR <- dataflow, rules flow
        # linter <- IR
        from repro.check.dataflow import stage_effects

        # one scan per distinct stage object; id() keys live only for
        # this call, while ``program`` keeps every stage alive
        effects: dict[int, Optional["Effects"]] = {}
        for p in program.pipelines:
            for s in p.stages:
                if id(s) not in effects:
                    effects[id(s)] = stage_effects(s.fn, s.style)
        pipelines: list[PipelineIR] = []
        for p in program.pipelines:
            nodes = [StageNode(
                name=s.name, style=s.style, virtual=s.virtual,
                virtual_group=s.virtual_group,
                replicated=p.is_replicated(s),
                replica_count=p.replica_count(s),
                stage=s, effects=effects[id(s)])
                for s in p.stages]
            pipelines.append(PipelineIR(
                name=p.name, stages=nodes, nbuffers=p.nbuffers,
                buffer_bytes=p.buffer_bytes, rounds=p.rounds,
                aux_buffers=p.aux_buffers,
                channel_capacity=p.channel_capacity,
                role=getattr(p, "role", None), pipeline=p))
        applied = getattr(program, "applied_plan", None)
        digest = applied.digest() if applied is not None else None
        return cls(name=program.name, pipelines=pipelines,
                   plan_digest=digest)

    def intersections(self) -> list[tuple[Any, list[PipelineIR]]]:
        """Stages shared (by identity) across pipelines — the
        intersecting-stage edges of the program graph.

        Returns ``(stage object, [owning PipelineIRs])`` pairs in
        first-appearance order, only for stages owned by more than one
        pipeline.
        """
        owners: dict[int, tuple[Any, list[PipelineIR]]] = {}
        order: list[int] = []
        for p in self.pipelines:
            for node in p.stages:
                key = id(node.stage)
                if key not in owners:
                    owners[key] = (node.stage, [])
                    order.append(key)
                if p not in owners[key][1]:
                    owners[key][1].append(p)
        return [owners[key] for key in order if len(owners[key][1]) > 1]

    def canonical(self) -> dict[str, Any]:
        """The canonical pure-data form — the single source for
        :func:`repro.prov.fingerprint.program_graph` and every structural
        digest."""
        shared = sorted(
            [[stage.name, sorted(p.name for p in pipes)]
             for stage, pipes in self.intersections()],
            key=lambda entry: (entry[0], entry[1]))
        return {
            "name": self.name,
            "pipelines": [p.canonical() for p in self.pipelines],
            "intersections": shared,
            "plan": self.plan_digest,
        }

    def fingerprint(self) -> str:
        """sha256 of :meth:`canonical` in canonical JSON."""
        from repro.prov.fingerprint import digest_json

        return digest_json(self.canonical())
