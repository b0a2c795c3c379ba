"""examples/merge_streams.py under FGSan.

The merge stage used to accept a horizontal buffer before knowing a
record was left; when the refill inside the fill loop exhausted the
merger, the empty buffer was neither conveyed nor returned and FGSan
reported a leak.  (CI runs every example under ``REPRO_SANITIZE=1``;
this is the one that failed.)
"""

import os
import runpy
import sys

EXAMPLE = os.path.abspath(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "merge_streams.py"))

#: what the example printed before the guard went in: same records, same
#: simulated time, same thread count
EXPECTED = (
    "merged 64 sorted runs x 4096 records -> 262144 records, "
    "verified sorted\n"
    "simulated time: 184.84 ms\n"
    "FG threads used: 7 (virtual stages; a naive build would need ~196)\n")


def test_merge_streams_is_leak_free_and_prints_the_same(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setattr(sys, "argv", [EXAMPLE])
    runpy.run_path(EXAMPLE, run_name="__main__")  # SanitizerError before
    assert capsys.readouterr().out == EXPECTED
