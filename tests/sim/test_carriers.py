"""Carrier threads: processes borrow OS threads from a per-kernel pool.

A kernel process is a blocking callable; the OS thread under it is a
*carrier* taken from the kernel's idle list at spawn and given back when
the process retires (``repro.sim.kernel``, "Carriers").  These tests pin
what that reuse must not change — identity, order, names, failure
handling — and what it must guarantee: an exact thread count and no
thread (or kernel) left behind when ``run()`` ends, however it ends —
and that virtual-time carriers run under ``SCHED_BATCH`` where the OS has
it, which simulated time cannot see ("Carrier policy").
"""

import gc
import os
import sys
import threading
import time
import weakref

import pytest

from repro.errors import DeadlockError, KernelStateError, ProcessFailed
from repro.prov import trace_digest
from repro.sim import Channel, RealTimeKernel, Tracer, VirtualTimeKernel


def _virtual():
    return VirtualTimeKernel()


def _realtime():
    return RealTimeKernel(time_scale=0.0)


both_kernels = pytest.mark.parametrize(
    "make_kernel", [_virtual, _realtime], ids=["virtual", "realtime"])


def _run(kernel):
    if isinstance(kernel, RealTimeKernel):
        kernel.run(timeout=30.0)
    else:
        kernel.run()


def _kernel_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("repro-")]


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    before = threading.active_count()
    yield
    assert _kernel_threads() == []
    assert threading.active_count() == before


# -- reuse and the exact count -------------------------------------------


def _three_at_a_time(kernel, idents):
    def worker(i):
        idents.append(threading.get_ident())
        return i

    def spawner():
        total = 0
        for wave in range(100):
            procs = [kernel.spawn(worker, 3 * wave + j) for j in range(3)]
            total += sum(p.join() for p in procs)
        return total

    return kernel.spawn(spawner)


def test_300_processes_three_at_a_time_run_on_three_threads():
    kernel = VirtualTimeKernel()
    idents = []
    root = _three_at_a_time(kernel, idents)
    kernel.run()
    assert root.result == sum(range(300))
    assert len(idents) == 300
    assert len(set(idents)) == 3
    assert kernel.threads_started == 3 + 1  # + the spawner's
    assert len(kernel.processes) == 301


def test_realtime_kernel_reuses_carriers_too():
    # a joiner may see DONE a moment before the finished process has
    # given its carrier back, so the count is small, not exact
    kernel = RealTimeKernel(time_scale=0.0)
    idents = []
    root = _three_at_a_time(kernel, idents)
    kernel.run(timeout=30.0)
    assert root.result == sum(range(300))
    assert kernel.threads_started == len(set(idents)) + 1
    assert kernel.threads_started < 30


def test_threads_started_repeats_exactly_and_is_not_a_metric():
    counts = []
    for _ in range(2):
        kernel = VirtualTimeKernel()
        metrics = kernel.enable_metrics()
        _spawn_heavy(kernel)
        kernel.run()
        counts.append(kernel.threads_started)
        assert "thread" not in repr(metrics.snapshot())
    assert counts == [SPAWN_HEAVY_THREADS] * 2


@both_kernels
def test_spawn_burst_larger_than_the_idle_list(make_kernel):
    kernel = make_kernel()
    gate = Channel(kernel, name="gate")

    def parked():
        return gate.get()

    def root():
        first = [kernel.spawn(lambda: None) for _ in range(2)]
        for p in first:
            p.join()
        burst = [kernel.spawn(parked) for _ in range(12)]
        for i in range(12):
            gate.put(i)
        return sorted(p.join() for p in burst)

    proc = kernel.spawn(root)
    _run(kernel)
    assert proc.result == list(range(12))
    # all twelve are alive at once, whatever was idle before the burst
    assert 13 <= kernel.threads_started <= 15
    if isinstance(kernel, VirtualTimeKernel):
        assert kernel.threads_started == 13


# -- identity inside a reused carrier ------------------------------------


@both_kernels
def test_current_process_follows_the_process_not_the_thread(make_kernel):
    kernel = make_kernel()
    seen = []

    def worker():
        me = kernel.current_process()
        kernel.sleep(0.001)  # park and resume on the same carrier
        seen.append((me, kernel.current_process(), kernel.in_process(),
                     threading.get_ident(), threading.current_thread().name))

    def root():
        for i in range(5):
            kernel.spawn(worker, name=f"w{i}").join()

    kernel.spawn(root, name="root")
    assert not kernel.in_process()
    _run(kernel)
    assert not kernel.in_process()
    with pytest.raises(KernelStateError):
        kernel.current_process()
    workers = [p for p in kernel.processes if p.name.startswith("w")]
    assert [(a, b) for a, b, *_ in seen] == [(p, p) for p in workers]
    assert all(inside for _, _, inside, _, _ in seen)
    # a bound carrier is named after its process, so thread dumps still
    # say which stage hung
    assert [name for *_, name in seen] == [f"repro-w{i}" for i in range(5)]
    if isinstance(kernel, VirtualTimeKernel):
        assert len({ident for _, _, _, ident, _ in seen}) == 1


def test_idle_carrier_is_renamed():
    kernel = VirtualTimeKernel()
    names = {}

    def root():
        kernel.spawn(lambda: None, name="short").join()
        names["idle"] = sorted(_kernel_threads())

    kernel.spawn(root, name="root")
    kernel.run()
    assert names["idle"] == ["repro-carrier", "repro-root"]


@both_kernels
def test_dynamic_spawn_and_join_of_a_finished_process(make_kernel):
    kernel = make_kernel()

    def leaf(x):
        return x * x

    def mid(x):
        return kernel.spawn(leaf, x).join() + 1

    def root():
        early = kernel.spawn(leaf, 7)
        kernel.sleep(0.01)          # `early` finishes meanwhile
        mids = [kernel.spawn(mid, x) for x in range(6)]
        late = [m.join() for m in mids]
        return early.join(), early.join(), late

    proc = kernel.spawn(root)
    _run(kernel)
    assert proc.result == (49, 49, [x * x + 1 for x in range(6)])


@both_kernels
def test_a_process_holds_an_event_only_while_bound(make_kernel):
    # ... so a stale wake raises instead of waking the carrier's next job
    kernel = make_kernel()
    gate = Channel(kernel, name="gate")
    held = {}

    def first():
        held["a"] = kernel.current_process()._resume_event

    def second():
        held["b"] = kernel.current_process()._resume_event
        return gate.get()

    a = kernel.spawn(first, name="a")
    assert a._resume_event is None

    def root():
        a.join()
        kernel.sleep(0.001)  # a's carrier is idle again
        b = kernel.spawn(second, name="b")
        kernel.sleep(0.001)  # b is parked on the gate
        with pytest.raises(AttributeError):
            a._resume_event.set()
        assert b.alive
        gate.put("go")
        return b.join(), b

    proc = kernel.spawn(root, name="root")
    _run(kernel)
    woken_with, b = proc.result
    assert woken_with == "go"
    assert held["a"] is not None and held["b"] is not None
    assert a._resume_event is None and b._resume_event is None
    if isinstance(kernel, VirtualTimeKernel):
        assert held["b"] is held["a"]  # b ran on the carrier a gave back


# -- no thread outlives run(), on any exit path --------------------------


def _failing_program(kernel, siblings=50):
    never = Channel(kernel, name="never")
    for i in range(siblings):
        kernel.spawn(never.get, name=f"parked{i}")

    def boom():
        kernel.sleep(0.001)
        raise ValueError("boom")

    kernel.spawn(boom, name="boom")


@both_kernels
def test_failure_with_parked_siblings_leaves_no_thread(make_kernel):
    before = threading.active_count()
    kernel = make_kernel()
    _failing_program(kernel)
    with pytest.raises(ProcessFailed, match="boom"):
        _run(kernel)
    assert threading.active_count() == before
    assert all(not p.alive for p in kernel.processes)
    with pytest.raises(KernelStateError):
        kernel.spawn(lambda: None)

    fresh = make_kernel()
    proc = fresh.spawn(lambda: "clean")
    _run(fresh)
    assert proc.result == "clean"
    assert threading.active_count() == before


def test_deadlock_leaves_no_thread():
    before = threading.active_count()
    kernel = VirtualTimeKernel()
    never = Channel(kernel, name="never")
    for i in range(20):
        kernel.spawn(never.get, name=f"stuck{i}")
    with pytest.raises(DeadlockError, match="stuck19"):
        kernel.run()
    assert threading.active_count() == before

    fresh = VirtualTimeKernel()
    proc = fresh.spawn(lambda: "clean")
    fresh.run()
    assert proc.result == "clean"
    assert fresh.threads_started == 1


def test_watchdog_expiry_leaves_no_thread():
    before = threading.active_count()
    kernel = RealTimeKernel(time_scale=0.0)
    never = Channel(kernel, name="never")
    for i in range(5):
        kernel.spawn(never.get, name=f"hung{i}")
    with pytest.raises(KernelStateError, match="watchdog"):
        kernel.run(timeout=0.1)
    assert threading.active_count() == before


def test_process_that_outlives_the_watchdog_grace_still_exits(monkeypatch):
    """A process stuck in user code cannot be unwound; when it finally
    returns, run() has drained the pool, so its carrier must exit rather
    than park for ever."""
    kernel = RealTimeKernel(time_scale=0.0)
    release = threading.Event()
    kernel.spawn(lambda: release.wait(30.0), name="stuck")
    # shorten the watchdog's 5 s grace
    wait_for = kernel._done.wait_for
    monkeypatch.setattr(
        kernel._done, "wait_for",
        lambda pred, timeout: wait_for(pred, timeout=min(timeout, 0.05)))
    with pytest.raises(KernelStateError, match="stuck"):
        kernel.run(timeout=0.05)
    assert _kernel_threads() == ["repro-stuck"]
    release.set()
    deadline = time.monotonic() + 10.0
    while _kernel_threads() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert _kernel_threads() == []


@both_kernels
def test_kernel_is_collectable_after_run(make_kernel):
    kernel = make_kernel()
    idents = []
    _three_at_a_time(kernel, idents)
    _run(kernel)
    ref = weakref.ref(kernel)
    del kernel
    gc.collect()
    assert ref() is None
    assert _kernel_threads() == []


def test_realtime_churn_under_a_short_switch_interval():
    """Eight spawners churn carriers concurrently: every child must run
    exactly once, as itself."""
    kernel = RealTimeKernel(time_scale=0.0)
    ran = []

    def child(tag):
        assert kernel.current_process().name == tag
        ran.append(tag)
        return tag

    def spawner(s):
        for wave in range(25):
            tags = [f"c{s}.{wave}.{j}" for j in range(4)]
            procs = [kernel.spawn(child, t, name=t) for t in tags]
            assert [p.join() for p in procs] == tags

    for s in range(8):
        kernel.spawn(spawner, s, name=f"spawner{s}")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        kernel.run(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert len(ran) == len(set(ran)) == 8 * 25 * 4
    assert kernel.threads_started < len(ran) // 4


# -- nothing moves in simulated time -------------------------------------

#: recorded at the parent commit (one threading.Thread per process)
SPAWN_HEAVY_TRACE_DIGEST = (
    "3be94459eb042dc9087709bf088da78bcd50a49d7ddc86c2dd7bc1f238e677d2")
SPAWN_HEAVY_EVENTS = 297
SPAWN_HEAVY_RESULT = 630
#: peak number of simultaneously started, unfinished processes:
#: root + one wave of 4 mids + their 12 leaves
SPAWN_HEAVY_THREADS = 17


def _spawn_heavy(kernel):
    """Nested spawns, joins and sleeps; every name explicit (default
    names carry the process-wide pid)."""
    def leaf(i):
        kernel.sleep(0.001 * (i % 3))
        return i

    def mid(i):
        kids = [kernel.spawn(leaf, 3 * i + j, name=f"leaf{i}.{j}")
                for j in range(3)]
        kernel.sleep(0.002)
        return sum(k.join() for k in kids)

    def root():
        total = 0
        for wave in range(3):
            mids = [kernel.spawn(mid, 4 * wave + m, name=f"mid{wave}.{m}")
                    for m in range(4)]
            kernel.sleep(0.0005)
            total += sum(m.join() for m in mids)
        return total

    return kernel.spawn(root, name="root")


def test_tracer_event_order_is_the_parent_commits():
    runs = []
    for _ in range(2):
        tracer = Tracer()
        kernel = VirtualTimeKernel(tracer=tracer)
        root = _spawn_heavy(kernel)
        kernel.run()
        assert root.result == SPAWN_HEAVY_RESULT
        runs.append(tracer.events)
        assert len(tracer.events) == SPAWN_HEAVY_EVENTS
        assert trace_digest(tracer) == SPAWN_HEAVY_TRACE_DIGEST
    assert runs[0] == runs[1]


# -- carrier policy ------------------------------------------------------


def _policy_program(kernel, policies):
    """Six processes that sleep and hand a channel round, each noting
    its carrier's scheduling policy at every step."""
    wire = Channel(kernel, capacity=1, name="wire")
    policy_of = getattr(os, "sched_getscheduler", None)

    def note():
        if policy_of is not None:
            policies.add(policy_of(threading.get_native_id()))

    def worker(i):
        for step in range(3):
            note()
            kernel.sleep(0.001 * ((i + step) % 3))
            if i % 2:
                wire.put(i)
            else:
                wire.get()
        return i

    return [kernel.spawn(worker, i, name=f"w{i}") for i in range(6)]


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                    reason="SCHED_BATCH is a Linux policy")
def test_virtual_time_carriers_run_under_sched_batch():
    caller = os.sched_getscheduler(0)
    seen = {}
    for make_kernel in (_virtual, _realtime):
        kernel = make_kernel()
        policies = set()
        _policy_program(kernel, policies)
        _run(kernel)
        seen[type(kernel).__name__] = policies
    # real-time carriers inherit the policy of the thread that made them
    assert seen == {"VirtualTimeKernel": {os.SCHED_BATCH},
                    "RealTimeKernel": {caller}}
    assert os.sched_getscheduler(0) == caller


def _refuse(*args):
    raise PermissionError(1, "Operation not permitted")


@pytest.mark.parametrize("how", ["refused", "missing"])
def test_a_run_without_the_policy_is_the_same_run(monkeypatch, how):
    caller = (os.sched_getscheduler(0)
              if hasattr(os, "sched_getscheduler") else None)
    runs = []
    for without in (False, True):
        with monkeypatch.context() as mp:
            if without and how == "refused":
                mp.setattr(os, "sched_setscheduler", _refuse, raising=False)
            elif without:
                mp.delattr(os, "SCHED_BATCH", raising=False)
            kernel = VirtualTimeKernel(tracer=Tracer())
            policies = set()
            procs = _policy_program(kernel, policies)
            kernel.run()
        runs.append((kernel.tracer.events, kernel.switches, kernel.handoffs,
                     kernel.threads_started, [p.result for p in procs]))
        if caller is not None and without:
            assert policies == {caller}
    assert runs[0] == runs[1]
