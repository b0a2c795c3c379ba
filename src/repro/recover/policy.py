"""Recovery policies: what the recovery manager is allowed to do.

A :class:`RecoverPolicy` enables up to three fine-grained mechanisms,
each strictly opt-in so a run without a policy behaves byte-identically
to the pre-recovery code:

* **checkpoint** — journal every durable unit of pass work (pass-1 run
  files, pass-2 output stripe pieces) in a write-ahead manifest, so a
  retried pass resumes from the last durable block instead of starting
  over;
* **backup_runs** — replicate each pass-1 run file onto a buddy node's
  disk as it is written, the durable substrate both speculation and
  re-assignment merge from;
* **reassign** — on a node crash mid-pass-2, re-stripe the dead rank's
  output partitions across the survivors and merge its runs from the
  buddy's backups, re-running only blocks that never became durable;
* **speculation** — watch per-rank merge progress and race a backup
  merge of a straggler's partition range on its buddy's spare core
  (:class:`SpeculationPolicy`).

Both dataclasses are frozen and JSON round-trippable: the chaos harness
records the active policy in provenance ``args``, and replay rebuilds it
with :meth:`RecoverPolicy.from_json`, so recovery decisions are part of
the byte-exact replay contract.
"""

from __future__ import annotations

import dataclasses
from math import inf
from typing import Optional

from repro.errors import FaultError
from repro.jsondoc import Document

__all__ = ["RecoverPolicy", "SpeculationPolicy"]


@dataclasses.dataclass(frozen=True)
class SpeculationPolicy(Document):
    """When to launch a backup merge for a straggling rank.

    The manager samples every rank's ``recovery.progress.<rank>`` gauge
    (fraction of its pass-2 partition range merged) every ``interval``
    kernel seconds.  A rank is *lagging* when its progress falls below
    ``lag_ratio`` times the median progress while the median itself has
    cleared ``min_progress`` (so nobody speculates during startup).
    After ``patience`` consecutive lagging samples the manager opens the
    rank's speculation gate and the backup merge parked on its buddy
    starts racing it; first contender to finish the range wins.
    """

    _doc_error = FaultError

    #: kernel seconds between progress samples
    interval: float = 0.05
    #: consecutive lagging samples before the backup is released
    patience: int = 2
    #: lagging means progress < lag_ratio * median(progress)
    lag_ratio: float = 0.5
    #: no speculation until the median progress reaches this fraction
    min_progress: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.interval < inf:  # also false for NaN
            raise FaultError("speculation interval must be finite and > 0")
        if self.patience < 1:
            raise FaultError("speculation patience must be >= 1")
        if not 0 < self.lag_ratio < 1:
            raise FaultError("speculation lag_ratio must be in (0, 1)")
        if not 0 <= self.min_progress < 1:
            raise FaultError("speculation min_progress must be in [0, 1)")


@dataclasses.dataclass(frozen=True)
class RecoverPolicy(Document):
    """Which recovery mechanisms a run may use (all off by default)."""

    _doc_error = FaultError

    #: journal runs / output pieces and resume retried passes from them
    checkpoint: bool = True
    #: replicate pass-1 runs to the buddy node (rank + 1 mod P)
    backup_runs: bool = False
    #: survive a node crash in pass 2 by re-striping over the survivors
    reassign: bool = False
    #: race backup merges against stragglers (needs backup_runs)
    speculation: Optional[SpeculationPolicy] = None
    #: polling period of the manager's control loops (kernel seconds);
    #: control polls are out-of-band and cost no modeled resources, the
    #: tick only discretizes when decisions can happen
    tick: float = 1e-3
    #: journal flush batching: durable facts are appended every this
    #: many units (runs / pieces), trading up to N-1 re-done blocks
    #: after a crash for N-fold fewer journal seeks during the run
    journal_every: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.tick < inf:  # also false for NaN
            raise FaultError("recovery tick must be finite and > 0")
        if self.journal_every < 1:
            raise FaultError("journal_every must be >= 1")
        if self.reassign and not self.backup_runs:
            raise FaultError(
                "reassign needs backup_runs: survivors can only merge a "
                "dead rank's partitions from its backup run files")
        if self.speculation is not None and not self.backup_runs:
            raise FaultError(
                "speculation needs backup_runs: the backup merge reads "
                "the straggler's runs from its buddy's disk")
