"""The one reader of the process environment: ``REPRO_SANITIZE`` and
``REPRO_RACE`` (FGSan / FGRace on) and ``REPRO_LINT_IGNORE`` (lint rule
IDs to suppress).  A leaf module: stdlib only.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Union

__all__ = ["detectors_masked", "lint_ignore_from_env", "race_from_env",
           "sanitize_from_env"]

_TRUTHY = ("1", "true", "yes", "on")


def sanitize_from_env() -> bool:
    """True when ``REPRO_SANITIZE`` requests sanitizing."""
    return os.environ.get("REPRO_SANITIZE", "").lower() in _TRUTHY


def race_from_env() -> Union[bool, str]:
    """Race-detection mode requested via ``REPRO_RACE``.

    ``1``/``true``/``yes``/``on`` enable collection mode, ``strict``
    enables the static-coverage cross-check, anything else disables.
    """
    value = os.environ.get("REPRO_RACE", "").strip().lower()
    if value == "strict":
        return "strict"
    return value in _TRUTHY


def lint_ignore_from_env() -> list[str]:
    """The raw rule IDs listed in ``REPRO_LINT_IGNORE``."""
    return os.environ.get("REPRO_LINT_IGNORE", "").split(",")


@contextlib.contextmanager
def detectors_masked() -> Iterator[None]:
    """Hide the dynamic detectors' opt-in variables for the duration."""
    masked = {var: os.environ.pop(var) for var in
              ("REPRO_RACE", "REPRO_SANITIZE") if var in os.environ}
    try:
        yield
    finally:
        os.environ.update(masked)
