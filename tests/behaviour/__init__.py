"""The behaviour manifest: what each scenario of ``scenarios.py`` showed
at the commit it was recorded at, one JSON line per scenario.

``read_manifest`` is the one reader; ``test_manifest.py`` checks every
scenario against it, and the tests that check more than a pin (the
recovery-wait spies, the detectors' passivity, the document read-back)
take their expected values from it too.  Re-record only on purpose, in a
commit that says why (``record.py``).
"""

import functools
import json
import os

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "manifest.jsonl")


@functools.cache
def read_manifest() -> dict:
    """scenario name -> its recorded flat dict of observables."""
    with open(MANIFEST) as fh:
        lines = [json.loads(line) for line in fh]
    return {line["name"]: line["observed"] for line in lines}
