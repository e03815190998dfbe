"""Trace-driven simulation top level.

The simulator replays a :class:`~repro.trace.record.Trace` through a
:class:`~repro.managers.base.MemoryManager`: each record is handed to
the manager (which translates, tracks, migrates, and issues DRAM
traffic), then the manager closes its final interval and the devices
drain.  All timing lives in the manager + device layers; the simulator
is deliberately a thin, obviously-correct loop.

:func:`build_manager` is the configuration front door: it resolves a
mechanism name through the spec registry
(:mod:`repro.mechanisms.registry`), which constructs the memory system
and manager and applies the Figure 10 "future technology" preset when
asked.  Both it and ``MANAGER_KINDS`` are re-exported here — this
module remains the stable import path for simulation entry points.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from ..common.config import require_in
from ..geometry import MemoryGeometry
from ..managers import MemoryManager
from ..mechanisms.registry import MANAGER_KINDS, build_manager
from ..trace.record import Trace
from .stats import SimulationResult, collect_result

__all__ = [
    "MANAGER_KINDS",
    "build_manager",
    "reference_simulate",
    "simulate",
    "run",
    "resolve_kernel",
    "KERNEL_KINDS",
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "DEFAULT_THROTTLE_CAP_PS",
    "THROTTLE_SAMPLE_PERIOD",
]


# CPU back-pressure defaults: how far the memory system may run behind
# the request stream before the cores are considered fully stalled, and
# how often the gap is sampled.
DEFAULT_THROTTLE_CAP_PS = 1_000_000  # 1 us of backlog
THROTTLE_SAMPLE_PERIOD = 128

# Replay kernel selection.  "reference" is the obviously-correct
# per-record loop below; "fast" is the batched kernel in
# ``repro.kernel`` proven bit-identical by the differential suite
# (tests/test_kernel_differential.py) and kept as the default.  The
# environment variable provides an ambient override, mirroring the
# other REPRO_* switches, so sweeps and the CLI can flip every
# simulation at once.
KERNEL_KINDS = ("reference", "fast")
KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_KERNEL = "fast"


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve a kernel choice: explicit > ``$REPRO_KERNEL`` > default."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    require_in("kernel", kernel, KERNEL_KINDS)
    return kernel


def reference_simulate(
    trace: Trace,
    manager: MemoryManager,
    throttle_cap_ps: int = DEFAULT_THROTTLE_CAP_PS,
    observe: Optional[Callable[[int], None]] = None,
) -> SimulationResult:
    """The reference replay loop: one ``handle`` call per record.

    This is the semantic definition the fast kernel is held to; it is
    deliberately a thin, obviously-correct loop.

    A trace is open-loop: its timestamps were recorded against *some*
    memory system, and a mechanism slower than that system would
    otherwise accumulate unbounded queues that no real machine exhibits
    (cores stall once their MSHRs fill, throttling the miss stream).
    Like Ramulator's simple CPU front-end, the replay approximates that
    resource-induced stall: whenever the furthest-ahead channel runs
    more than ``throttle_cap_ps`` past the current trace time, the
    remaining trace is shifted forward by the excess — time the cores
    spend stalled rather than issuing new misses.  ``throttle_cap_ps=0``
    disables the throttle (pure open-loop replay).

    ``observe``, when given, is called with each record's arrival after
    the record is handled and before the throttle sample; the sanitizer
    hooks its read-only sweeps in here.
    """
    handle = manager.handle
    memory = manager.memory
    offset_ps = 0
    countdown = THROTTLE_SAMPLE_PERIOD
    for arrival_ps, address, is_write, core in trace.records:
        arrival_ps += offset_ps
        handle(address, bool(is_write), arrival_ps, core)
        if observe is not None:
            observe(arrival_ps)
        if throttle_cap_ps:
            countdown -= 1
            if countdown == 0:
                countdown = THROTTLE_SAMPLE_PERIOD
                backlog = memory.peak_bus_free_ps() - arrival_ps
                if backlog > throttle_cap_ps:
                    offset_ps += backlog - throttle_cap_ps
    end_ps = manager.finish()
    return collect_result(manager, trace, end_ps)


def simulate(
    trace: Trace,
    manager: MemoryManager,
    throttle_cap_ps: int = DEFAULT_THROTTLE_CAP_PS,
    kernel: Optional[str] = None,
    sanitize: Optional[bool] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``manager`` and collect the result.

    ``kernel`` selects the replay implementation (see
    :func:`resolve_kernel`); both produce identical results, so the
    choice is purely a speed/debuggability trade.

    ``sanitize`` (explicit, or ambient via ``$REPRO_SANITIZE``) layers
    the runtime invariant checker of :mod:`repro.analysis.sanitize` on
    the replay.  The sanitizer observes the reference loop with
    read-only checks, so it overrides the kernel choice but still
    produces field-for-field identical results — at reference-loop
    speed, which is why sanitized runs are excluded from benchmark
    baselines.
    """
    from ..analysis.sanitize import resolve_sanitize  # lazy: avoids a cycle

    if resolve_sanitize(sanitize):
        from ..analysis.sanitize import sanitized_simulate

        return sanitized_simulate(trace, manager, throttle_cap_ps)
    if resolve_kernel(kernel) == "fast":
        from ..kernel.replay import fast_simulate  # lazy: avoids an import cycle

        return fast_simulate(trace, manager, throttle_cap_ps)
    return reference_simulate(trace, manager, throttle_cap_ps)


def run(
    trace: Trace,
    kind: str,
    geometry: MemoryGeometry,
    future_tech: bool = False,
    window: int = 8,
    throttle_cap_ps: int = DEFAULT_THROTTLE_CAP_PS,
    kernel: Optional[str] = None,
    sanitize: Optional[bool] = None,
    **params,
) -> SimulationResult:
    """One-call convenience: build the manager and replay the trace."""
    manager = build_manager(
        kind, geometry, future_tech=future_tech, window=window, **params
    )
    return simulate(
        trace, manager, throttle_cap_ps=throttle_cap_ps, kernel=kernel,
        sanitize=sanitize,
    )
