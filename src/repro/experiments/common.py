"""Shared experiment infrastructure.

Every paper artefact (Figures 1-3, 6-10, Tables 1-3) has a driver in
this package that (a) builds or reuses the workload traces, (b) runs
the relevant simulations or analyses, and (c) returns a structured
result with a ``format_table()`` renderer printing the same rows and
series the paper reports.

Scaling
-------
Experiments run on the Python-scale machine (see
:func:`repro.geometry.scaled_geometry` and DESIGN.md Section 5).  The
knobs live in :class:`ExperimentConfig` and can be overridden from the
environment so the benchmark harness stays hands-free:

* ``REPRO_SCALE``       — capacity divisor (default 32),
* ``REPRO_LENGTH``      — trace length in requests (default 250,000),
* ``REPRO_SEED``        — root seed (default 1),
* ``REPRO_WORKLOADS``   — comma-separated subset (default: all 27).

HMA's epoch and sort penalty scale with trace reach: the paper's 100 ms
epoch covers ~2,000 MemPod intervals of real time, far beyond any
Python-feasible trace, so scaled runs shrink the epoch to 500 us (10
MemPod intervals) while preserving the paper's 7 % penalty-to-epoch
ratio.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import ConfigError
from ..common.units import us
from ..geometry import MemoryGeometry, scaled_geometry
from ..trace.interleave import TraceBuildResult, build_trace
from ..trace.record import Trace
from ..trace.workloads import get_workload, workload_names

# Scaled-HMA defaults: 500 us epochs (10 MemPod intervals) with the
# paper's 7% sort-penalty ratio and a proportional migration budget.
# The paper's epoch is 2,000 intervals; Python-feasible traces span
# only ~50 intervals, so the ratio is compressed (EXPERIMENTS.md
# discusses the effect: scaled HMA adapts less badly than the real one).
HMA_SCALED_INTERVAL_PS = us(500)
HMA_SCALED_PENALTY_PS = int(us(35))
HMA_SCALED_MAX_MIGRATIONS = 512


def _env_int(name: str, default: int) -> int:
    """Integer from the environment, or ``default`` when unset/empty.

    Malformed values raise :class:`ConfigError` naming the variable, so
    ``REPRO_SCALE=abc`` fails with an actionable message instead of a
    bare ``ValueError`` traceback from deep inside a sweep.
    """
    value = os.environ.get(name)
    if value is None or not value.strip():
        return default
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {value!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment driver."""

    scale: int = 32
    length: int = 250_000
    seed: int = 1
    workloads: Tuple[str, ...] = ()

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Resolve the configuration from ``REPRO_*`` variables."""
        subset = os.environ.get("REPRO_WORKLOADS", "")
        names = tuple(n.strip() for n in subset.split(",") if n.strip())
        return cls(
            scale=_env_int("REPRO_SCALE", 32),
            length=_env_int("REPRO_LENGTH", 250_000),
            seed=_env_int("REPRO_SEED", 1),
            workloads=names,
        )

    @property
    def geometry(self) -> MemoryGeometry:
        """The scaled machine for this configuration."""
        return scaled_geometry(self.scale)

    def workload_list(self, default: Optional[Sequence[str]] = None) -> List[str]:
        """Selected workloads (explicit subset > caller default > all 27)."""
        if self.workloads:
            return list(self.workloads)
        if default is not None:
            return list(default)
        return workload_names()

    def hma_params(self) -> Dict[str, int]:
        """Scaled HMA epoch/penalty (see module docstring)."""
        return {
            "interval_ps": HMA_SCALED_INTERVAL_PS,
            "sort_penalty_ps": HMA_SCALED_PENALTY_PS,
            "max_migrations_per_interval": HMA_SCALED_MAX_MIGRATIONS,
        }


def _synthesise(workload: str, scale: int, length: int, seed: int) -> TraceBuildResult:
    geometry = scaled_geometry(scale)
    return build_trace(get_workload(workload), geometry, length=length, seed=seed)


# In-memory builds, for ``REPRO_NO_TRACE_STORE=1`` and store failures.
_cached_trace = lru_cache(maxsize=64)(_synthesise)


@lru_cache(maxsize=64)
def _stored_trace(workload: str, scale: int, length: int, seed: int) -> Trace:
    """The trace served through the columnar trace store.

    Cold path synthesises once (uncached, so only the mapped file stays
    alive), persists, then *re-opens the stored file*, so cold and warm
    runs replay the identical mapped representation — there is exactly
    one replay code path per store state, pinned byte-identical to the
    in-memory path by the differential suite.  Any filesystem trouble
    (read-only store root, disk full) falls back to the in-memory build;
    a *corrupt* store file stays loud (``TraceError`` propagates).
    """
    from ..trace.store import TraceStore, synth_trace_key

    key = synth_trace_key(workload, scale, length, seed)
    built: Optional[Trace] = None
    try:
        store = TraceStore()
        trace = store.open(key, name=workload)
        if trace is None:
            built = _synthesise(workload, scale, length, seed).trace
            store.save(key, built)
            trace = store.open(key, name=workload)
        if trace is not None:
            return trace
    except OSError:
        pass
    return built if built is not None else _cached_trace(workload, scale, length, seed).trace


def trace_for(config: ExperimentConfig, workload: str) -> Trace:
    """Build (or reuse) the trace for one workload under ``config``.

    Traces are deterministic in (workload, scale, length, seed).  By
    default they are served through the content-addressed columnar
    trace store (:mod:`repro.trace.store`): synthesised once *per
    machine*, memory-mapped thereafter, so sweep workers in separate
    processes stop re-synthesising the same trace per cell.  Setting
    ``REPRO_NO_TRACE_STORE=1`` reverts to the per-process in-memory
    build; either way an ``lru_cache`` deduplicates within a process.
    """
    from ..trace.store import store_enabled

    if store_enabled():
        return _stored_trace(workload, config.scale, config.length, config.seed)
    return _cached_trace(workload, config.scale, config.length, config.seed).trace


def clear_trace_cache() -> None:
    """Drop cached traces (benchmarks that sweep lengths call this)."""
    _cached_trace.cache_clear()
    _stored_trace.cache_clear()


def format_rows(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned fixed-width table (the drivers' output format)."""
    rendered_rows = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
