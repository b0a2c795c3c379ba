"""Tests for FGProgram reporting and buffer-memory accounting."""

import pytest

from repro.core import FGProgram, Stage
from repro.sim import VirtualTimeKernel


def run_simple_program(kernel, nbuffers=2, buffer_bytes=128, aux=False):
    prog = FGProgram(kernel, name="reportme")

    def work(ctx, buf):
        kernel.sleep(0.5)
        return buf

    prog.add_pipeline("p", [Stage.map("worker", work)],
                      nbuffers=nbuffers, buffer_bytes=buffer_bytes,
                      rounds=4, aux_buffers=aux)
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    return prog


def test_total_buffer_bytes_counts_pools():
    kernel = VirtualTimeKernel()
    prog = run_simple_program(kernel, nbuffers=3, buffer_bytes=100)
    assert prog.total_buffer_bytes == 300


def test_total_buffer_bytes_counts_aux():
    kernel = VirtualTimeKernel()
    prog = run_simple_program(kernel, nbuffers=2, buffer_bytes=100,
                              aux=True)
    assert prog.total_buffer_bytes == 400


def test_total_buffer_bytes_sums_pipelines():
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    prog.add_pipeline("a", [Stage.map("sa", lambda c, b: b)],
                      nbuffers=2, buffer_bytes=10, rounds=1)
    prog.add_pipeline("b", [Stage.map("sb", lambda c, b: b)],
                      nbuffers=4, buffer_bytes=100, rounds=1)
    assert prog.total_buffer_bytes == 420


def test_memory_is_fixed_regardless_of_rounds():
    """The paper's claim: pools, not data volume, bound buffer memory."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel)
    prog.add_pipeline("p", [Stage.map("s", lambda c, b: b)],
                      nbuffers=2, buffer_bytes=64, rounds=10_000)
    before = prog.total_buffer_bytes
    kernel.spawn(prog.run, name="driver")
    kernel.run()
    assert prog.total_buffer_bytes == before == 128
    # really did run 10k rounds through 2 buffers
    assert prog.stage_stats()["s"].conveys == 10_000


def test_report_contains_stage_rows():
    kernel = VirtualTimeKernel()
    prog = run_simple_program(kernel)
    report = prog.report()
    assert "reportme" in report
    assert "worker" in report
    assert "accepts" in report
    # 4 data buffers + 1 caboose accepted
    assert " 5 " in report or "       5" in report


def test_accounting_reads_declarations_not_released_pools():
    """wait() gives the pools back; what the program says about itself —
    bytes declared, the report, per-stage stats — does not change when
    the arrays go."""
    kernel = VirtualTimeKernel()
    prog = FGProgram(kernel, name="reportme")
    p = prog.add_pipeline("p", [Stage.map("worker", lambda ctx, buf: buf)],
                          nbuffers=4, buffer_bytes=100, rounds=4,
                          aux_buffers=True)
    seen = {}

    def driver():
        prog.start()
        while not prog.finished:
            kernel.sleep(0.1)
        # every process has exited but wait() has not run: pools intact
        assert all(buf.capacity == 100 for buf in prog.buffers_of(p))
        seen["before"] = (prog.total_buffer_bytes, prog.report(),
                          prog.stage_stats()["worker"].conveys)
        prog.wait()

    kernel.spawn(driver, name="driver")
    kernel.run()
    assert all(buf.capacity == 0 for buf in prog.buffers_of(p))
    assert seen["before"] == (prog.total_buffer_bytes, prog.report(),
                              prog.stage_stats()["worker"].conveys)
    assert prog.total_buffer_bytes == 800
    assert "800 buffer byte(s)" in prog.report()
