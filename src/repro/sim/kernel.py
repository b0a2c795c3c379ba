"""Abstract execution kernel: processes, parking, and the scheduling contract.

A :class:`Kernel` runs a set of :class:`Process` objects, each of which wraps
a plain Python callable written in blocking style.  Processes interact with
the kernel only through blocking primitives:

* :meth:`Kernel.sleep` — consume (simulated or real) time;
* :meth:`Kernel.poll` — sleep in fixed ticks until a condition holds;
* :meth:`Kernel.hold` — sleep while holding units of a
  :class:`~repro.sim.resources.Resource`;
* :meth:`Kernel.block_current` / :meth:`Kernel.make_ready` — park the calling
  process on a wait queue until another process wakes it (used by channels
  and resources);
* :meth:`Process.join` — wait for another process to finish.

What a process is parked on is one field, ``Process._waiting_on``: a
sleep's deadline (a float, so a sleep formats and allocates nothing), or
``(on, how)`` for every other park — ``on`` the object parked on (a
:class:`~repro.sim.channel.Channel`, :class:`~repro.sim.resources.Resource`,
:class:`~repro.cluster.network.Mailbox` or :class:`Process`), ``how`` that
object's one argument (``"get"``/``"put"``, units, nbytes, ``(source,
tag)``, or None for a join).  The class of ``on`` is the wait's type.
Every parkable object provides the pair that reads it: ``_park_reason(how)``,
the text :attr:`Process.waiting_on` shows (and a tracer's PARK records),
and ``_wait_info()``, the live detail a deadlock or watchdog report
appends (occupancy, units in use, buffered bytes).  Neither is formatted
until somebody reads it.

The two concrete kernels (:class:`~repro.sim.virtual.VirtualTimeKernel` and
:class:`~repro.sim.realtime.RealTimeKernel`) implement the same contract, so
synchronization objects (channels, resources) are written once against this
interface.

Thread-safety contract: every primitive that inspects or mutates shared
kernel state does so while holding :attr:`Kernel.mutex`.  Synchronization
objects acquire the mutex themselves and call ``block_current(locked=True)``
while holding it; the kernel releases the mutex while the process is parked
and re-acquires nothing on resume (wakers transfer any data before waking).

Carriers: a process does not own an OS thread.  Each kernel keeps a pool of
*carrier* threads, every one parked on its own :class:`_Wake` — a binary
flag on one raw lock allocated with the carrier, so a wake is one
``release()`` and a park one ``acquire()``: what the OS charges for a
thread hand-off and nothing more (no ``Condition``, no lock allocated per
wait).  Starting a process binds it to an idle carrier (most recently
idled first, a new thread only when none is idle) and lends it the
carrier's wake as ``Process._resume_event``; the wake that admits the
process is the wake that starts the carrier, so a reused carrier costs no
thread start and no extra OS wake-up.  When the process finishes, its
carrier clears the wake and goes back to the idle list; when
:meth:`Kernel.run` returns or raises, every idle carrier is woken with no
job, exits and is joined, so no kernel thread outlives ``run()``.  The
invariant that makes lending a wake safe: every ``_resume_event.set()``
happens while the process is still bound (wakers only ever name live
processes, and a live process cannot retire before it is woken), and
clear-and-release happens under the mutex, before the retiring process
hands the run token on — so no ``set()`` meant for a finished process can
reach the carrier's next one.  Release also resets
``Process._resume_event`` to None: a stale wake raises instead of waking a
stranger.  :attr:`Kernel.threads_started` counts the OS threads created.

Self hand-off: under the virtual-time kernel a parking process that is
itself the scheduler's next pick (a sleeper alone on the timeline) keeps
the run token and touches no wake at all.  Simulated time cannot tell:
the pick advanced the clock, the switch is counted and traced, and only
the two OS-level operations that would have woken the thread already
running are skipped.  :attr:`VirtualTimeKernel.handoffs
<repro.sim.virtual.VirtualTimeKernel.handoffs>` counts the switches that
did wake another thread.

Polls: ``poll(ready, tick)`` means ``while not ready(): sleep(tick)``, and
the base class implements it as exactly that loop (so does the real-time
kernel).  The virtual-time kernel parks the poller once and lets the
scheduler evaluate ``ready`` each time it pops the poller off the timeline.
A false tick is then run where it is found: the scheduler records the
RESUME, counts the switch and records the PARK (same ``sleep until t=…``
text) that the poller's own ``sleep`` would have, re-queues it one tick
later with the next sequence number, and picks again; only a true tick
hands the poller the token.  The clock, ``switches``, every trace event
and every digest are those of the loop — the self hand-off argument,
extended from one process to one tick — and no thread is woken to find
nothing to do.  :attr:`VirtualTimeKernel.polled
<repro.sim.virtual.VirtualTimeKernel.polled>` counts the ticks the
scheduler ran itself.  The price is a contract on ``ready``: it runs on
whichever carrier holds the run token, under the kernel mutex, so it must
be read-only, must not block, take the mutex or call
:meth:`Kernel.current_process`, and must record no trace event or metric.

Holds: ``hold(resource, seconds, units)`` means ``with
resource.request(units): sleep(seconds)``, and the base class (so the
real-time kernel) implements it as exactly that bracket.  ``seconds`` may
be a zero-argument function, called at the instant the units are granted
(fault injectors read the clock there).  The virtual-time kernel takes the
mutex once per hold and lets the scheduler run both ends of it.  A holder
queued behind others is granted its units by a releaser, as with
``acquire``; when the scheduler pops it off the ready queue it records the
RESUME, counts the switch, records the PARK (``sleep until t=…``) and
queues the holder on the timeline — what the holder's own ``sleep`` would
have done, without waking it.  When the scheduler pops a holder off the
timeline it releases the units, granting them to whoever waits next, and
only then wakes the holder.  The grant's sleep is invisible for the poll
argument's reason.  The release is invisible because in the bracket it is
the first thing the woken holder does, and in the scheduler it happens at
the same instant with no process run in between.
:attr:`VirtualTimeKernel.granted
<repro.sim.virtual.VirtualTimeKernel.granted>` counts the sleeps the
scheduler started.  ``seconds`` is checked before any unit is taken, and
a ``seconds`` function keeps the contract on ``ready``; if it raises or
returns an invalid time under the scheduler, the holder is woken, and
then releases its units and raises the error in its own process, as the
bracket would.

Carrier policy: the virtual-time kernel runs its carriers under Linux's
``SCHED_BATCH``, set once per carrier thread when it starts (skipped
silently where the OS lacks the policy or refuses it).  Only one carrier
ever runs at a time there, and a woken ``SCHED_BATCH`` thread never
preempts its waker, so a hand-off is one voluntary OS context switch —
the waker parks at once — instead of a preemption followed by the woken
thread blocking on the GIL its waker still holds.  Real-time carriers
run concurrently and keep the default policy.  A fixed hint to the OS,
not an option: simulated time cannot see it.
"""

from __future__ import annotations

import enum
import itertools
import os
import threading
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Union

from repro.errors import (
    KernelShutdown,
    KernelStateError,
    ProcessFailed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import Counter, MetricsRegistry
    from repro.sim.resources import Resource
    from repro.sim.trace import Tracer

__all__ = ["Kernel", "Process", "ProcessState"]

#: a hold's duration: seconds, or a function called when the units are
#: granted that returns them
HoldTime = Union[float, Callable[[], float]]


class ProcessState(enum.Enum):
    """Lifecycle states of a kernel process."""

    NEW = "new"          #: created, not bound to a carrier yet
    READY = "ready"      #: eligible to run (virtual-time kernel only)
    RUNNING = "running"  #: currently executing user code
    BLOCKED = "blocked"  #: parked on a wait queue or timed event
    DONE = "done"        #: target returned normally
    FAILED = "failed"    #: target raised


class _Wake:
    """A binary wake flag on one pre-allocated raw lock.

    The lock held means *clear*, free means *set*.  :meth:`wait` blocks
    until the flag is set and consumes it — the flag reads clear again
    when ``wait`` returns, so a parker need not clear before it waits.
    ``set`` before ``wait`` is remembered, and ``set`` on a set flag does
    nothing, whichever of two racing setters gets there second.
    """

    __slots__ = ("_lock", "wait")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self.wait = self._lock.acquire

    def set(self) -> None:
        try:
            self._lock.release()
        except RuntimeError:  # already set
            pass

    def clear(self) -> None:
        self._lock.acquire(False)


def _check_tick(tick: float) -> None:
    if not 0 <= tick < inf:  # also false for NaN
        raise ValueError(f"poll tick must be finite and >= 0: {tick}")


def _hold_time(seconds: HoldTime) -> float:
    """A hold's duration: ``seconds``, or what it returns if callable;
    finite and >= 0 like a sleep's."""
    duration = seconds() if callable(seconds) else seconds
    if not 0 <= duration < inf:  # also false for NaN
        raise ValueError(f"hold time must be finite and >= 0: {duration}")
    return duration


def _batch_policy() -> None:
    """Put the calling thread under ``SCHED_BATCH`` (module docstring,
    "Carrier policy"); keep the default where the OS lacks or refuses it."""
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass


class _Carrier(threading.Thread):
    """A reusable OS thread (see the module docstring, "Carriers").

    Parked on :attr:`event` whenever it is idle; woken either with a
    process bound to :attr:`proc`, which it runs to completion, or with
    none, which tells it to exit.  While bound it is named after its
    process so thread dumps say which stage hung.  With ``batch`` it runs
    under ``SCHED_BATCH`` ("Carrier policy").
    """

    IDLE_NAME = "repro-carrier"

    def __init__(self, batch: bool) -> None:
        super().__init__(name=self.IDLE_NAME, daemon=True)
        self.event = _Wake()
        self.proc: Optional[Process] = None
        self.batch = batch

    def run(self) -> None:
        if self.batch:
            _batch_policy()
        # no local outlives an iteration: a parked carrier must not pin
        # its last process (or, through it, the kernel and its cluster)
        while True:
            self.event.wait()
            if self.proc is None:
                return
            self.proc.kernel._bootstrap(self.proc)


class Process:
    """A schedulable unit: one user callable running on one carrier thread.

    Processes are created with :meth:`Kernel.spawn`; user code never
    instantiates this class directly.  After the kernel finishes,
    :attr:`result` holds the callable's return value (or :attr:`exception`
    the exception that terminated it).
    """

    _ids = itertools.count()

    def __init__(self, kernel: "Kernel", target: Callable[..., Any],
                 args: tuple, kwargs: dict, name: Optional[str]):
        self.kernel = kernel
        self.target = target
        self.args = args
        self.kwargs = kwargs
        self.pid = next(Process._ids)
        self.name = name if name is not None else f"proc-{self.pid}"
        self.state = ProcessState.NEW
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: what the process is parked on (module docstring): a sleep's
        #: simulated deadline, or ``(on, how)``; None while it runs
        self._waiting_on: Union[float, tuple[Any, Any], None] = None
        #: one-slot mailbox used by wakers to hand data to a parked process
        #: (e.g. a channel item) before making it ready.
        self.wake_value: Any = None
        #: the wake primitive of the carrier this process is bound to;
        #: None before it starts and after it retires
        self._resume_event: Optional[_Wake] = None
        #: what the virtual-time scheduler runs, in place of waking this
        #: parked process, when it pops it: a poll's tick or a hold's
        #: grant or release.  Returns True when the process must be woken
        #: after all (the scheduler then clears it); a step that does not
        #: wake it has parked it again itself.
        self._step: Optional[Callable[[], bool]] = None
        self._joiners: list[Process] = []
        #: host nanoseconds this process held the run token, on the
        #: virtual-time kernel (0 under the real-time one): one
        #: ``perf_counter_ns()`` per owner change — when it starts, when
        #: it hands the token to another process, when it finishes.  The
        #: steps the scheduler runs inline while it parks (poll ticks,
        #: hold grants and releases) count toward the parking process;
        #: a sleeper that keeps the token keeps counting.  A plain
        #: attribute like ``handoffs``, never a metric.
        self.host_ns = 0

    # -- introspection ----------------------------------------------------

    @property
    def waiting_on(self) -> Optional[str]:
        """Human-readable description of what the process is blocked on;
        surfaced in traces and deadlock reports, and formatted only here."""
        what = self._waiting_on
        if isinstance(what, tuple):
            on, how = what
            return on._park_reason(how)
        if what is None:
            return None
        return f"sleep until t={what:.9g}"

    def _park_reason(self, how: None) -> str:
        """What a joiner of this process is parked on."""
        return f"join({self.name})"

    def _wait_info(self) -> str:
        """A join has no live detail to report."""
        return ""

    @property
    def alive(self) -> bool:
        """True while the process has not finished (normally or by error)."""
        return self.state not in (ProcessState.DONE, ProcessState.FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} pid={self.pid} state={self.state.value}>"

    # -- blocking API (callable from inside kernel processes) -------------

    def join(self) -> Any:
        """Block the calling process until this process finishes.

        Returns the target's return value.  Raises :class:`ProcessFailed`
        if the joined process terminated with an exception.
        """
        kernel = self.kernel
        me = kernel.current_process()
        kernel.mutex.acquire()
        if self.alive:
            self._joiners.append(me)
            # block_current releases the mutex (locking contract).
            kernel.block_current(locked=True, on=self)
        else:
            kernel.mutex.release()
        if kernel.race is not None:
            # join edge: everything the joined process did happened
            # before this point — whether it finished or failed
            kernel.race.on_join(self.pid)
        if self.exception is not None:
            raise ProcessFailed(self.name, self.exception)
        return self.result


class Kernel:
    """Base class implementing process bookkeeping shared by both kernels."""

    #: whether carriers run under ``SCHED_BATCH`` (module docstring,
    #: "Carrier policy"): fixed per kernel class, not per instance
    _BATCH_CARRIERS = False

    def __init__(self) -> None:
        #: global kernel mutex; see module docstring for the locking contract.
        self.mutex = threading.Lock()
        self._processes: list[Process] = []
        self._live = 0
        self._started = False
        self._finished = False
        self._aborting = False
        self._failure: Optional[ProcessFailed] = None
        self._tls = threading.local()
        self._idle: list[_Carrier] = []
        #: OS threads this kernel created.  Carriers are bound under the
        #: mutex and reused most-recently-idled first, so this equals the
        #: peak number of simultaneously started, unfinished processes
        #: and repeats exactly under the virtual-time kernel.  A plain
        #: attribute like ``switches``, never a metric.
        self.threads_started = 0
        #: optional execution tracer (repro.sim.trace.Tracer).  Only the
        #: virtual-time kernel records into one; every kernel carries the
        #: attribute so decision sites read it plainly, like ``metrics``.
        self.tracer: Optional["Tracer"] = None
        #: optional metrics registry recording in this kernel's time;
        #: see :meth:`enable_metrics`.  Channels and FG programs
        #: instrument themselves when it is non-None.
        self.metrics: Optional["MetricsRegistry"] = None
        self._spawned: Optional["Counter"] = None
        #: optional provenance capture (repro.prov.ProvenanceCapture);
        #: when non-None, every FG program that starts on this kernel
        #: reports its stage-graph fingerprint through its observer.
        self.provenance: Optional[Any] = None
        #: optional execution plan (repro.plan.Plan); when non-None,
        #: every FG program that starts on this kernel is stamped with
        #: its digest (the plan's geometry travels in the sorter config).
        self.plan: Optional[Any] = None
        #: optional happens-before race detector
        #: (repro.check.races.RaceDetector); when non-None, channels and
        #: the cluster network thread vector clocks through every
        #: send/receive and FG programs replay their static effect sets
        #: against it.  See :meth:`enable_race_detection`.
        self.race: Optional[Any] = None

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""
        raise NotImplementedError

    # -- observability -------------------------------------------------------

    def enable_metrics(self) -> "MetricsRegistry":
        """Attach (or return) a metrics registry bound to this kernel's
        clock.  Must be called before the synchronization objects and FG
        programs that should record into it are constructed — they look up
        :attr:`metrics` at creation time.
        """
        if self.metrics is None:
            from repro.obs.metrics import MetricsRegistry
            self.metrics = MetricsRegistry(self.now)
        return self.metrics

    def enable_race_detection(self, *, strict: bool = False) -> Any:
        """Attach (or return) an FGRace happens-before detector.

        Like :meth:`enable_metrics`, call before constructing the
        channels and programs that should participate — they look up
        :attr:`race` per operation, so earlier objects also join in,
        but clocks are only complete from attachment onward.
        """
        if self.race is None:
            from repro.check.races import RaceDetector
            self.race = RaceDetector(self, strict=strict)
        elif strict:
            self.race.strict = True
        return self.race

    # -- process management -------------------------------------------------

    def spawn(self, target: Callable[..., Any], *args: Any,
              name: Optional[str] = None, **kwargs: Any) -> Process:
        """Create a new process running ``target(*args, **kwargs)``.

        May be called before :meth:`run` (to set up root processes) or from
        inside a running process (dynamic spawning, e.g. FG assembling the
        pipelines of a later pass).
        """
        if self._finished:
            raise KernelStateError("cannot spawn onto a finished kernel")
        proc = Process(self, target, args, kwargs, name)
        with self.mutex:
            self._processes.append(proc)
            self._live += 1
            if self._started:
                self._start_process_locked(proc)
        if self.race is not None:
            # fork edge: the child starts after the spawner's current
            # point (no-op for root spawns from outside the kernel)
            self.race.on_spawn(proc.pid)
        if self.metrics is not None:
            spawned = self._spawned
            if spawned is None:  # registered at the first spawn only
                spawned = self._spawned = self.metrics.counter(
                    "kernel.processes_spawned")
            spawned.inc()
        return proc

    def current_process(self) -> Process:
        """Return the process bound to the calling thread.

        Raises :class:`KernelStateError` when called from a thread that is
        not a kernel process (e.g. the main test thread).
        """
        proc = getattr(self._tls, "process", None)
        if proc is None:
            raise KernelStateError(
                "this primitive may only be used from inside a kernel process")
        return proc

    def in_process(self) -> bool:
        """True when the calling thread is a kernel process."""
        return getattr(self._tls, "process", None) is not None

    @property
    def processes(self) -> list[Process]:
        """All processes ever spawned on this kernel (snapshot copy)."""
        with self.mutex:
            return list(self._processes)

    # -- blocking primitives (implemented by subclasses) --------------------

    def sleep(self, duration: float) -> None:
        """Consume ``duration`` seconds of kernel time."""
        raise NotImplementedError

    def poll(self, ready: Callable[[], bool], tick: float) -> None:
        """Sleep in steps of ``tick`` until ``ready()`` holds.

        Exactly ``while not ready(): self.sleep(tick)``; a ``ready`` that
        holds at once costs nothing.  ``tick`` is checked up front like a
        sleep duration.  ``ready`` must keep the contract in the module
        docstring ("Polls"), which lets the virtual-time kernel evaluate
        it without waking the poller.
        """
        _check_tick(tick)
        while not ready():
            self.sleep(tick)

    def hold(self, resource: "Resource", seconds: HoldTime,
             units: int = 1) -> None:
        """Hold ``units`` of ``resource`` for ``seconds`` of kernel time.

        Exactly ``with resource.request(units): self.sleep(seconds)``,
        with a callable ``seconds`` called once the units are granted.
        A ``seconds`` that is not callable is checked before any unit is
        taken.  Callers use :meth:`Resource.hold
        <repro.sim.resources.Resource.hold>`; the virtual-time kernel
        runs the grant and the release in its scheduler (module
        docstring, "Holds").
        """
        if not callable(seconds):
            _hold_time(seconds)
        with resource.request(units):
            self.sleep(_hold_time(seconds))

    def block_current(self, *, locked: bool, on: Any,
                      how: Any = None) -> Any:
        """Park the calling process until another process wakes it.

        ``locked`` must be True and the caller must hold :attr:`mutex`; the
        kernel releases the mutex while parked.  ``on`` is the object the
        process parks on and ``how`` its argument: the park is recorded
        as ``(on, how)``, and ``on._park_reason(how)`` / ``on._wait_info()``
        describe it when read (module docstring).  Returns the process's
        :attr:`Process.wake_value` (set by the waker) and clears it.
        """
        raise NotImplementedError

    def make_ready(self, proc: Process, wake_value: Any = None) -> None:
        """Wake a parked process.  Caller must hold :attr:`mutex`."""
        raise NotImplementedError

    # -- run loop ------------------------------------------------------------

    def run(self) -> None:
        """Run all spawned processes to completion.

        Raises :class:`ProcessFailed` (wrapping the first failure) if any
        process raised, and :class:`~repro.errors.DeadlockError` if the
        virtual-time kernel detects that all live processes are blocked with
        no pending timed event.
        """
        raise NotImplementedError

    # -- shared helpers for subclasses ---------------------------------------

    def _start_process_locked(self, proc: Process) -> None:
        """Bind ``proc`` to a parked carrier.  Mutex held by caller.

        The carrier stays parked: the first ``proc._resume_event.set()``
        (the scheduler's, or :meth:`_prepare_new_process_locked`'s) is
        what starts the process.
        """
        if self._idle:
            carrier = self._idle.pop()
        else:
            carrier = _Carrier(self._BATCH_CARRIERS)
            carrier.start()
            self.threads_started += 1
        carrier.proc = proc
        carrier.name = f"repro-{proc.name}"
        proc._resume_event = carrier.event
        self._prepare_new_process_locked(proc)

    def _prepare_new_process_locked(self, proc: Process) -> None:
        """Hook: subclass bookkeeping once a process is bound."""

    def _release_carrier_locked(self, proc: Process) -> None:
        """Unbind the calling carrier from ``proc``, which has finished.

        Called by :meth:`_retire` with the mutex held, before the run
        token moves on (module docstring, "Carriers").
        """
        carrier = threading.current_thread()
        assert isinstance(carrier, _Carrier) and carrier.proc is proc
        carrier.proc = None
        carrier.name = carrier.IDLE_NAME
        proc._resume_event = None
        if self._finished:
            # a process that outlived the watchdog's grace: run() has
            # already drained the pool, so this carrier exits too
            carrier.event.set()
        else:
            carrier.event.clear()
            self._idle.append(carrier)

    def _finish(self) -> None:
        """End of :meth:`run`, on every exit path: close the kernel and
        wake, with no job, and join every idle carrier."""
        with self.mutex:
            self._finished = True
            idle, self._idle = self._idle, []
        for carrier in idle:
            carrier.event.set()
        for carrier in idle:
            carrier.join()

    def _bootstrap(self, proc: Process) -> None:
        """Run ``proc`` on the calling carrier, which has just been woken."""
        self._tls.process = proc
        try:
            if self._aborting:
                raise KernelShutdown()
            self._admit(proc)
            proc.state = ProcessState.RUNNING
            proc.result = proc.target(*proc.args, **proc.kwargs)
            proc.state = ProcessState.DONE
        except KernelShutdown:
            proc.state = ProcessState.FAILED
            proc.exception = None  # shutdown is not a user failure
        except BaseException as exc:  # noqa: BLE001 - report any failure
            proc.state = ProcessState.FAILED
            proc.exception = exc
        finally:
            self._retire(proc)

    def _admit(self, proc: Process) -> None:
        """Hook: the scheduler has admitted this new process."""

    def _retire(self, proc: Process) -> None:
        """Hook: bookkeeping when a process finishes; release its carrier,
        wake joiners, pick next."""
        raise NotImplementedError

    def _wake_joiners_locked(self, proc: Process) -> None:
        for joiner in proc._joiners:
            self.make_ready(joiner)
        proc._joiners.clear()

    def _record_failure_locked(self, proc: Process) -> None:
        if proc.exception is not None and self._failure is None:
            self._failure = ProcessFailed(proc.name, proc.exception)

    @staticmethod
    def _describe_blocked(procs: Iterable[Process]) -> str:
        lines = []
        for p in procs:
            line = f"  - {p.name}: waiting on {p.waiting_on or '?'}"
            wait = p._waiting_on
            if isinstance(wait, tuple):
                try:
                    detail = wait[0]._wait_info()
                except Exception:  # noqa: BLE001 - report must not fail
                    detail = ""
                if detail:
                    line += f" {detail}"
            lines.append(line)
        return "\n".join(lines)
