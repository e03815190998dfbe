"""Correctness gate: every replay must equal the reference loop's result.

A result is reduced to a digest of all its fields in canonical JSON
(sorted keys, floats in their shortest round-trip form), so two results
have equal digests exactly when they are field-for-field equal.  A
replay fails the gate when it raised, or when its digest differs from
the reference loop's digest for the same cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple


def digest(result) -> str:
    """SHA-256 over the canonical JSON of every ``SimulationResult`` field."""
    canonical = json.dumps(
        dataclasses.asdict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class Replay:
    """One attempted replay of one cell (``label`` is ``trace/mechanism``)."""

    label: str
    mechanism: str
    records: int
    seconds: float
    result: object = None
    error: Optional[str] = None
    dispatch: str = ""
    #: the host's slowdown while it ran (see :mod:`calibrate`); 1.0 if
    #: the replay was not calibrated
    host_factor: float = 1.0

    @property
    def calibrated_seconds(self) -> float:
        return self.seconds / self.host_factor

    @property
    def digest(self) -> Optional[str]:
        return digest(self.result) if self.result is not None else None


def check(
    replays: Iterable[Replay], reference: Dict[str, str]
) -> Tuple[int, List[str]]:
    """``(attempted, failures)`` of ``replays`` against reference digests.

    Each failure names the cell and why it failed: an exception, a
    missing reference, or a digest that differs from the reference's.
    """
    attempted = 0
    failures: List[str] = []
    for replay in replays:
        attempted += 1
        if replay.error is not None:
            failures.append(f"{replay.label}: raised {replay.error}")
            continue
        expected = reference.get(replay.label)
        if expected is None:
            failures.append(f"{replay.label}: no reference digest")
        elif replay.digest != expected:
            failures.append(f"{replay.label}: result differs from the reference loop")
    return attempted, failures
