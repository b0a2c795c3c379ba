"""repro.tune acceptance benchmark: the in-run feedback controller.

The TuneController shortens a compute-bound pipeline by replicating its
bottleneck stage mid-flight, and a repeated controlled run makes the
identical decisions at the identical virtual instants.  (The offline
grid and the planner it checks are gated by ``bench_planner.py``.)
"""

from conftest import save_observability, save_result

from repro.bench import render_table
from repro.core import FGProgram, Stage
from repro.sim import Tracer, VirtualTimeKernel
from repro.tune import BacklogPolicy, TuneController


def controller_demo(controlled, rounds=48, work_time=0.002):
    """Fast feed ahead of a slow replicated work stage."""
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    kernel.enable_metrics()
    prog = FGProgram(kernel, name="demo")

    def feed(ctx, buf):
        return buf

    def work(ctx, buf):
        kernel.sleep(work_time)
        return buf

    prog.add_pipeline("p", [Stage.map("feed", feed),
                            Stage.map("work", work)],
                      nbuffers=4, buffer_bytes=64, rounds=rounds,
                      replicas={"work": 1})

    controller = None

    def driver():
        nonlocal controller
        prog.start()
        if controlled:
            controller = TuneController(
                prog, interval=0.003,
                policy=BacklogPolicy(patience=1, cooldown=0,
                                     max_replicas=4))
            controller.start()
        prog.wait()

    kernel.spawn(driver, name="driver")
    kernel.run()
    return kernel.now(), prog, controller, tracer, kernel


def test_controller_speeds_up_compute_bound_pipeline(once):
    def experiment():
        base_time, _, _, _, _ = controller_demo(controlled=False)
        tuned = controller_demo(controlled=True)
        repeat = controller_demo(controlled=True)
        return base_time, tuned, repeat

    base_time, tuned, repeat = once(experiment)
    tuned_time, prog, controller, tracer, kernel = tuned
    speedup = base_time / tuned_time
    applied = [d for d in controller.decisions if d.applied]
    rows = [["uncontrolled", base_time * 1e3, 1, "-"],
            ["TuneController", tuned_time * 1e3,
             prog.replica_sets()[0].total,
             f"{len(applied)} actions"]]
    save_result(
        "tuner_controller",
        "in-run feedback control of a compute-bound pipeline "
        f"(speedup {speedup:.2f}x)\n"
        + render_table(["run", "makespan (ms)", "work replicas",
                        "decisions"], rows))
    save_observability("tuner_controller", tracer,
                       metrics=kernel.metrics)

    assert speedup > 1.5, f"controller speedup {speedup:.2f}x <= 1.5x"
    assert any(d.action.kind == "add_replica" for d in applied)
    # determinism: the repeated controlled run is identical
    assert repeat[0] == tuned_time
    assert [(d.time, d.action.kind, d.applied)
            for d in repeat[2].decisions] == \
        [(d.time, d.action.kind, d.applied) for d in controller.decisions]
