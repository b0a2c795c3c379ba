"""Observability artifact: a per-thread Gantt of dsort's pipelines.

Not a paper figure — the raw material behind all of them.  Runs dsort on
two nodes with the execution tracer attached and saves a Gantt chart of
node 0's FG threads, making the overlap that produces the Figure-8
numbers directly visible ('#' = timed work, '+' = queued on a busy
resource, '.' = waiting for data).  The same run also emits the
machine-readable artifacts — ``stage_trace.trace.json`` (Chrome-trace,
node-0 stage threads), ``stage_trace.metrics.json`` (kernel-time metrics
snapshot), and ``stage_trace.bottleneck.txt`` (limiting-stage report) —
that EXPERIMENTS.md's observability section points at.
"""

from conftest import save_observability, save_result

from repro.bench.harness import benchmark_hardware
from repro.obs import analyze_bottleneck
from repro.pdm.records import RecordSchema
from repro.prov import observed_cluster
from repro.sorting.dsort import DsortConfig, run_dsort
from repro.sorting.verify import verify_striped_output
from repro.workloads.generator import generate_input


def test_dsort_stage_trace(once):
    def experiment():
        cluster, _ = observed_cluster(2, hardware=benchmark_hardware())
        schema = RecordSchema.paper_16()
        manifest = generate_input(cluster, schema, 16384, "uniform",
                                  seed=6)
        # run_sort's geometry at this shape except oversample (64
        # there): the committed stage_trace.* artifacts are of this run
        config = DsortConfig(block_records=2048,
                             vertical_block_records=1024,
                             out_block_records=1024, oversample=32)
        cluster.run(run_dsort, schema, config)
        verify_striped_output(cluster, manifest, config.output_file,
                              config.out_block_records)
        return cluster.kernel.tracer, cluster.kernel

    tracer, kernel = once(experiment)
    elapsed = kernel.now()
    node0_stages = tracer.node0_stage_names()
    chart = tracer.gantt(width=100, processes=node0_stages)
    save_result("stage_trace",
                f"dsort on 2 nodes — node 0 stage threads "
                f"({elapsed * 1e3:.2f} ms simulated)\n" + chart)
    save_observability("stage_trace", tracer, metrics=kernel.metrics,
                       processes=node0_stages)
    report = analyze_bottleneck(tracer, processes=node0_stages)
    save_result("stage_trace.bottleneck", report.render())
    assert report.bottleneck.process in node0_stages
    lines = chart.splitlines()
    assert len(lines) == len(node0_stages) + 1
    # pass-1 and pass-2 stages both present
    assert any("dsort-p1@0" in line for line in lines)
    assert any("dsort-p2@0" in line for line in lines)
    # somebody did timed work and somebody waited
    body = "\n".join(lines[1:])
    assert "#" in body and "." in body
