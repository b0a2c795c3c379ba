"""Arrival traces: the scheduler's input stream, serializable and seeded.

An :class:`ArrivalTrace` is the complete, ordered description of what
every tenant submits and when.  It round-trips through JSON so the same
trace can drive a benchmark run, ride inside a provenance record, and be
re-submitted during replay — determinism starts with the input being a
value, not a generator.

:func:`synthetic_trace` builds the multi-tenant benchmark workloads:
every draw comes from one ``random.Random(seed)``, so a seed fully
determines the trace.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Iterator, Mapping, Optional, Sequence

from repro.errors import SchedError
from repro.jsondoc import Document
from repro.sched.job import JobSpec

__all__ = ["Arrival", "ArrivalTrace", "synthetic_trace"]


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One submission: a spec arriving at an instant of virtual time."""

    time: float
    spec: JobSpec

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # also false for NaN
            raise SchedError(
                f"arrival time must be finite and >= 0, got {self.time}")


@dataclasses.dataclass(frozen=True)
class ArrivalTrace(Document):
    """An ordered stream of arrivals (sorted by time, then input order)."""

    _doc_error = SchedError

    arrivals: tuple[Arrival, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.arrivals,
            key=lambda a: a.time))
        object.__setattr__(self, "arrivals", ordered)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[Arrival]:
        return iter(self.arrivals)

    @property
    def tenants(self) -> list[str]:
        seen: dict[str, None] = {}
        for arrival in self.arrivals:
            seen.setdefault(arrival.spec.tenant, None)
        return list(seen)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ArrivalTrace":
        return cls.from_json(json.loads(text))


def synthetic_trace(
    seed: int,
    n_jobs: int,
    tenants: Sequence[str] = ("alpha", "beta"),
    *,
    mean_interarrival: float = 0.5,
    kinds: Sequence[str] = ("blocks",),
    n_nodes_choices: Sequence[int] = (1, 2),
    tenant_share: Optional[Mapping[str, float]] = None,
    params: Optional[Mapping[str, Mapping]] = None,
    priority_choices: Sequence[int] = (0,),
) -> ArrivalTrace:
    """A seeded Poisson-ish multi-tenant workload.

    ``tenant_share`` skews which tenant each job belongs to (weights,
    default uniform) — the benchmark uses it to build a flooding heavy
    tenant and a sparse light one.  ``params`` maps kind name to the
    spec params for jobs of that kind.
    """
    if n_jobs < 1:
        raise SchedError("synthetic_trace needs n_jobs >= 1")
    if not tenants:
        raise SchedError("synthetic_trace needs at least one tenant")
    if not 0 < mean_interarrival < math.inf:  # also false for NaN
        raise SchedError(f"mean_interarrival must be finite and > 0, "
                         f"got {mean_interarrival}")
    rng = random.Random(seed)
    weights = [float((tenant_share or {}).get(t, 1.0)) for t in tenants]
    arrivals = []
    now = 0.0
    for _ in range(n_jobs):
        now += rng.expovariate(1.0 / mean_interarrival)
        tenant = rng.choices(list(tenants), weights=weights)[0]
        kind = rng.choice(list(kinds))
        spec = JobSpec(
            tenant=tenant,
            kind=kind,
            n_nodes=rng.choice(list(n_nodes_choices)),
            params=dict((params or {}).get(kind, {})),
            priority=rng.choice(list(priority_choices)),
        )
        arrivals.append(Arrival(time=round(now, 6), spec=spec))
    return ArrivalTrace(arrivals=tuple(arrivals))
