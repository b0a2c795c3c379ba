"""The detectors are passive.

The hook-site program (``tests/behaviour/scenarios.py``, ``hook_sites``)
drives every buffer-lifecycle hook site in ``repro.core``; its manifest
line pins the digests and per-stage counts with no detector attached.
The same digests and counts with FGSan and FGRace attached show that
neither detector perturbs the schedule or the metrics.
"""

from tests.behaviour import read_manifest
from tests.behaviour.scenarios import hook_sites


def test_detectors_are_passive():
    observed, kernel = hook_sites(sanitize=True, race_detect=True)
    assert observed == read_manifest()["hook-sites"]
    assert kernel.race.races == []
    assert not any(name.startswith("sanitizer.")
                   for name in kernel.metrics.snapshot()["counters"])
