"""ROADMAP 4(e)'s pass-2 speculation hang fails fast instead of hanging.

A permanent disk-fault burst on rank 0 in pass 2, with speculation on,
leaves only the recovery manager and rank 1's two backup merges running:
both backups poll ``backup_wait`` for rank 0's gate, which never opens,
and every other process waits on a channel, a mailbox or a join that
nothing will satisfy.  Simulated time keeps advancing, so the run never
deadlocks; the virtual-time kernel's livelock guard (``repro.sim.virtual``,
``LIVELOCK_SWITCHES``) stops it.  The protocol itself is still broken, and
this test pins that: the fix for 4(e) turns it red, and should rewrite it
to expect a verified sort.
"""

import time

import pytest

from repro.errors import DeadlockError
from repro.faults import FaultPlan, run_chaos_dsort
from repro.recover import RecoverPolicy, SpeculationPolicy
from tests.sim.test_carriers import _kernel_threads

#: host seconds the guard must answer in (it needs about one)
BOUND_S = 20.0


def test_the_pass_2_speculation_livelock_raises_within_the_bound():
    start = time.perf_counter()
    with pytest.raises(DeadlockError) as info:
        run_chaos_dsort(
            seed=42,
            recover=RecoverPolicy(checkpoint=True, backup_runs=True,
                                  reassign=True,
                                  speculation=SpeculationPolicy()),
            plan=FaultPlan(seed=42).with_disk_faults(
                rate=1.0, rank=0, permanent=True, start=0.36, end=0.37),
            block_records=256, vertical_block_records=64,
            out_block_records=256)
    assert time.perf_counter() - start < BOUND_S
    header, *lines = str(info.value).splitlines()
    assert header.startswith("livelock: ")
    polling = int(header.rsplit("(", 1)[1].split()[0])
    pollers = {line.split(":")[0].removeprefix("  - ")
               for line in lines[:polling]}
    # rank 1's two backup_wait pollers, parked for rank 0's gate
    assert {"dsort-p2@1.e0.vgroup[bak0.read]",
            "dsort-p2@1.e0.bak0.merge"} <= pollers
    assert any(line.startswith("  - recover.manager: ") for line in lines)
    assert _kernel_threads() == []
