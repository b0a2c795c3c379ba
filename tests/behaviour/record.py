"""Record the behaviour manifest: one JSON line per scenario, keys sorted.

Run from this tree's root with the code to record first on the path —
the parent commit's, to pin a refactor against its parent::

    git worktree add /tmp/parent HEAD~
    PYTHONPATH=/tmp/parent/src python -m tests.behaviour.record \\
        > tests/behaviour/manifest.jsonl

then review ``git diff tests/behaviour/manifest.jsonl``: every moved
field is a behaviour change the commit must explain.
"""

import contextlib
import json
import sys

from tests.behaviour.scenarios import SCENARIOS


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout the manifest
        observed = {name: SCENARIOS[name]() for name in sorted(SCENARIOS)}
    for name, values in observed.items():
        print(json.dumps({"name": name, "observed": values}, sort_keys=True))
