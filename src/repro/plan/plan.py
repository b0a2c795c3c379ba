"""Plan emission: the serializable output of the planner.

:func:`plan_sort` runs geometry inference (:mod:`repro.plan.geometry`)
for one sorting benchmark and wraps the result in a :class:`Plan` — a
frozen, JSON-round-trippable value that travels three ways:

* ``run_sort(plan=...)`` applies its config overrides to the sorter's
  defaults and installs it on the run's kernel, where
  ``FGProgram.start()`` picks it up to stamp the program (so the
  structural fingerprint records which plan the run was under);
* ``tune_sort(warm_start=plan)`` seeds the offline hill climb at the
  planned config instead of the hand-tuned default;
* the provenance record stores ``plan.to_json()``, so ``repro replay``
  re-applies the identical plan and planned runs replay byte-exactly.

:meth:`Plan.digest` hashes only the decision *outcome* (sorter, shape,
config) — not the prose reasons — so two planners that agree
on what to do produce the same digest.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ReproError
from repro.jsondoc import from_doc, to_doc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.hardware import HardwareModel
    from repro.core.program import FGProgram

__all__ = ["Plan", "PlanDecision", "plan_sort"]


@dataclasses.dataclass(frozen=True)
class PlanDecision:
    """One planner choice: which knob, what value, and why."""

    target: str
    value: Any
    reason: str


@dataclasses.dataclass(frozen=True)
class Plan:
    """A compiled execution plan for one sorting benchmark shape."""

    sorter: str
    n_nodes: int
    n_per_node: int
    record_bytes: int
    #: config overrides in ``run_sort(tune=...)`` field-name form
    config: dict[str, Any]
    decisions: tuple[PlanDecision, ...] = ()

    def digest(self) -> str:
        """sha256 over the decision outcome (reasons excluded)."""
        from repro.prov.fingerprint import digest_json

        return digest_json({f.name: getattr(self, f.name)
                            for f in dataclasses.fields(self)
                            if f.name != "decisions"})

    def to_json(self) -> dict[str, Any]:
        return {**to_doc(self), "digest": self.digest()}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Plan":
        """Rebuild a plan serialized by :meth:`to_json`; on top of the
        document rule (:mod:`repro.jsondoc`), a document whose digest
        no longer matches its content is refused."""
        plan = from_doc(cls, doc, derived=("digest",))
        want = doc.get("digest")
        if want is not None and want != plan.digest():
            raise ReproError(
                f"plan digest mismatch: document says {want}, "
                f"reconstructed plan hashes to {plan.digest()} — the "
                "plan was edited after emission")
        return plan

    def explain(self) -> str:
        """Human-readable account of every decision."""
        head = (f"plan for {self.sorter} on {self.n_nodes} nodes x "
                f"{self.n_per_node} records/node "
                f"({self.record_bytes} B records)")
        lines = [head, f"  digest {self.digest()[:16]}…"]
        for d in self.decisions:
            lines.append(f"  {d.target} = {d.value}")
            lines.append(f"      {d.reason}")
        return "\n".join(lines)

    # -- application -----------------------------------------------------------

    def install(self, kernel: Any) -> None:
        """Attach this plan to a kernel; every ``FGProgram.start()`` on
        that kernel will then :meth:`apply` it."""
        kernel.plan = self

    def apply(self, program: "FGProgram") -> None:
        """Stamp one declared program so its structural fingerprint
        carries this plan's digest.  The plan's geometry reaches the
        program through the sorter config, not through here."""
        program.applied_plan = self


def plan_sort(sorter: str, n_nodes: int, n_per_node: int,
              record_bytes: int = 16,
              hardware: Optional["HardwareModel"] = None) -> Plan:
    """Compile a plan for one sorting benchmark shape.

    Pure static analysis over the hardware cost model — no cluster run,
    no search.  ``hardware`` defaults to the benchmark preset
    (:func:`repro.bench.harness.benchmark_hardware`), matching what
    ``run_sort`` will charge.
    """
    from repro.plan.geometry import (
        plan_csort_geometry,
        plan_dsort_geometry,
    )

    if hardware is None:
        from repro.bench.harness import benchmark_hardware

        hardware = benchmark_hardware()
    if sorter in ("dsort", "dsort-linear"):
        config, decisions = plan_dsort_geometry(
            n_nodes, n_per_node, record_bytes, hardware)
        if sorter == "dsort-linear":
            # the ablation runs one copy of its sort stage by definition
            # (run_dsort_linear refuses sort_replicas > 1)
            del config["sort_replicas"]
            decisions = [d for d in decisions
                         if d["target"] != "sort_replicas"]
    elif sorter == "csort":
        config, decisions = plan_csort_geometry(
            n_nodes, n_per_node, record_bytes, hardware)
    else:
        raise ReproError(f"no planner for sorter {sorter!r}; expected "
                         "'dsort', 'dsort-linear', or 'csort'")
    return Plan(sorter=sorter, n_nodes=n_nodes, n_per_node=n_per_node,
                record_bytes=record_bytes, config=config,
                decisions=tuple(PlanDecision(**d) for d in decisions))
