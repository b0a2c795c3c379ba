"""Execution-kernel substrate: virtual-time and real-time schedulers.

This package provides the concurrency substrate that the FG framework and
the cluster model are built on.  User code (FG stages, node main programs)
is written as plain blocking Python — exactly the programming model the FG
paper describes — and runs unmodified on either kernel:

* :class:`~repro.sim.virtual.VirtualTimeKernel` — a deterministic
  cooperative scheduler.  Every process runs on a real thread (borrowed
  from the kernel's pool of reusable carrier threads), but only one runs
  at a time; blocking primitives hand control to the scheduler, which
  advances a simulated clock to the earliest pending event.  All reported
  times are exact consequences of the hardware cost model, independent of
  the GIL, host load, or thread-scheduling order.

* :class:`~repro.sim.realtime.RealTimeKernel` — free-running threads with
  ordinary locks; time is the wall clock.  Used for correctness runs and
  examples that perform real file I/O.

On top of the kernels, :mod:`repro.sim.channel` provides bounded FIFO
channels (the buffer queues of FG) and one-shot flags, and
:mod:`repro.sim.resources` provides counted resources (disk arms, NICs,
CPU cores).
"""

from repro.sim.kernel import Kernel, Process, ProcessState
from repro.sim.trace import TraceEvent, Tracer
from repro.sim.virtual import VirtualTimeKernel
from repro.sim.realtime import RealTimeKernel
from repro.sim.channel import Channel, Flag
from repro.sim.resources import Resource

__all__ = [
    "Kernel",
    "Process",
    "ProcessState",
    "VirtualTimeKernel",
    "RealTimeKernel",
    "Channel",
    "Flag",
    "Resource",
    "Tracer",
    "TraceEvent",
]
