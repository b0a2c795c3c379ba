"""Fine-grained recovery: checkpoints, speculation, re-assignment.

``repro.recover`` makes a faulted dsort run finish almost as fast as a
clean one.  Where the pre-existing recovery story was coarse — a pass
that fails anywhere restarts everywhere — the
:class:`~repro.recover.manager.RecoveryManager` drives three
fine-grained, policy-gated mechanisms (:class:`RecoverPolicy`):

* **block-level checkpointing** — write-ahead journals
  (:class:`repro.pdm.Journal`) record every durable run file and output
  stripe piece; a retried pass resumes from the last durable block;
* **speculative backup execution** — a progress watcher races a backup
  merge of a straggler's partition range on its buddy's spare core;
  first to finish wins, the loser drains through the normal FG teardown;
* **partition re-assignment** — a node crash mid-pass-2 re-stripes the
  dead rank's partitions over the survivors, merging from backup runs
  and re-running only blocks that never became durable.

Every decision is a ``recovery.*`` metric, a ``recover`` trace instant,
and an entry of the manager's decision log, which provenance records and
replay compares.  See
docs/ROBUSTNESS.md.
"""

from repro.recover.manager import NodeDied, RecoveryManager
from repro.recover.policy import RecoverPolicy, SpeculationPolicy

__all__ = [
    "NodeDied",
    "RecoverPolicy",
    "RecoveryManager",
    "SpeculationPolicy",
]
