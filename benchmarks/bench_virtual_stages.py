"""Figure 5(b): virtual stages collapse k pipelines' thread cost to O(1).

"Most current systems cannot handle hundreds of threads" — with virtual
stages, FG creates one thread for the stage group and auto-virtualizes
the sources and sinks, so 256 sorted runs cost 3 threads, not 768.

Counted and measured: "threads" is FG's logical count (processes the
program spawned, ``FGProgram.thread_count``); "OS" is how many OS threads
the kernel actually started for the run (``Kernel.threads_started``).
Every stage of these programs is alive at once, so the two differ by
exactly the driver process.
"""

from conftest import save_result

from repro.bench import render_table, virtual_stage_experiment


def test_virtual_stage_thread_counts(once):
    results = once(virtual_stage_experiment, (4, 32, 256))
    rows = [[k, counts["plain"], counts["plain_os_threads"],
             counts["virtual"], counts["virtual_os_threads"]]
            for k, counts in sorted(results.items())]
    save_result("virtual_stages", "threads for k single-stage pipelines\n"
                + render_table(["k", "plain threads", "plain OS",
                                "virtual threads", "virtual OS"], rows))
    for k, counts in results.items():
        assert counts["plain"] == 3 * k      # source + stage + sink per k
        assert counts["virtual"] == 3        # one group of each, any k
        # measured: the same, plus the driver process's thread
        assert counts["plain_os_threads"] == counts["plain"] + 1
        assert counts["virtual_os_threads"] == counts["virtual"] + 1
