"""Per-layer metrics: which public functions the traced run wraps, and how
the spans they record become ``<layer>.<metric>`` numbers.

Layers are the simulator's packages.  Host times are in seconds and
calls are counts; the simulated statistics come from each replay's
``SimulationResult`` and its memory's service-path counters.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Tuple

import repro.experiments.common as experiments_common
import repro.kernel.replay as kernel_replay
import repro.runner.pool as runner_pool
import repro.system.simulator as simulator
import repro.system.stats as system_stats
import repro.trace.store as trace_store
from repro.core.datapath import MigrationEngine
from repro.core.mempod import MemPodManager
from repro.core.pod import Pod
from repro.dram.controller import ChannelController
from repro.managers.base import ComposedManager, MemoryManager
from repro.runner.cache import ResultCache
from repro.system.hybrid import TieredMemory
from repro.trace.record import Trace
from repro.tracking.competing import CompetingCounterArray
from repro.tracking.full_counters import FullCountersTracker
from repro.tracking.mea import MeaTracker

from cells import MECHANISMS
from spans import Tracer

#: the root span of a traced pass
BODY = "bench.body"

#: (owner, attribute, span name) of every plainly wrapped callable
_WRAPPED = [
    (experiments_common, "build_trace", "trace.synth"),
    (trace_store.TraceStore, "save", "trace.store_save"),
    (trace_store, "open_columnar", "trace.store_open"),
    (Trace, "packed", "trace.packed"),
    (MemPodManager, "remap_columns", "core.remap_columns"),
    (ComposedManager, "remap_columns", "managers.remap_columns"),
    (MemoryManager, "blocked_columns", "managers.blocked_columns"),
    (MigrationEngine, "swap_pages", "core.swap_pages"),
    (MigrationEngine, "swap_lines", "core.swap_lines"),
    (Pod, "plan_interval", "core.plan_interval"),
    (MeaTracker, "record_batch", "tracking.record_batch"),
    (FullCountersTracker, "record_batch", "tracking.record_batch"),
    (CompetingCounterArray, "access_batch", "tracking.access_batch"),
    (ChannelController, "enqueue_batch", "dram.enqueue_batch"),
    (ChannelController, "enqueue_run", "dram.enqueue_run"),
    (ChannelController, "enqueue", "dram.enqueue"),
    (kernel_replay, "collect_result", "system.collect_result"),
    (simulator, "collect_result", "system.collect_result"),
    (system_stats, "collect_result", "system.collect_result"),
    (TieredMemory, "peak_bus_free_ps", "system.peak_bus_free"),
    (runner_pool.SweepRunner, "map", "runner.map"),
    (runner_pool, "cell_key", "runner.cell_key"),
    (ResultCache, "store", "runner.cache_store"),
    (ResultCache, "load", "runner.cache_load"),
]

#: spans reported as ``<span>_calls`` and ``<span>_s``
_COUNTED = (
    "core.remap_columns", "managers.remap_columns", "managers.blocked_columns",
    "core.swap_pages", "core.swap_lines", "tracking.record_batch",
    "tracking.access_batch", "dram.enqueue_batch", "dram.enqueue_run",
    "dram.enqueue", "system.peak_bus_free",
)

#: spans reported as ``<span>_s`` only
_TIMED = (
    "trace.synth", "trace.store_save", "trace.store_open", "trace.packed",
    "mechanisms.build_manager", "core.plan_interval", "system.collect_result",
    "runner.map", "runner.cell_key", "runner.cache_store", "runner.cache_load",
)

#: the per-transaction and per-chunk spans are aggregated, not stored
_AGGREGATED_ONLY = ("dram.", "tracking.", "system.peak_bus_free",
                    "managers.", "core.swap", "core.remap", "runner.cache",
                    "runner.cell_key", "trace.packed", "kernel.select_kernel")

PER_LAYER: List[Tuple[str, str]] = (
    [(f"{span}_s", "s") for span in _TIMED]
    + [("runner.warm_map_s", "s"), ("runner.warm_hit_rate", "ratio"),
       ("kernel.fallback_replays", "count")]
    + [(f"{span}_{kind}", "count" if kind == "calls" else "s")
       for span in _COUNTED for kind in ("calls", "s")]
    + [(f"kernel.{m}.{name}", unit) for m in MECHANISMS for name, unit in (
        ("replay_s", "s"), ("self_s", "s"),
        ("speedup_vs_reference", "ratio"), ("pure_over_numpy", "ratio"),
    )]
    + [(f"core.{m}.{name}", unit) for m in MECHANISMS for name, unit in (
        ("migrations", "count"), ("bytes_moved", "B"),
    )]
    + [(f"dram.{m}.{name}", unit) for m in MECHANISMS for name, unit in (
        ("served", "count"), ("closed_form_served", "count"),
        ("scalar_fallback_served", "count"),
        ("row_hit_rate_fast", "ratio"), ("row_hit_rate_slow", "ratio"),
    )]
    + [(f"system.{m}.{name}", unit) for m in MECHANISMS for name, unit in (
        ("ammat_ns", "ns"), ("fast_service_fraction", "ratio"),
    )]
    + [("bench.traced_body_s", "s"), ("bench.layer_self_sum_s", "s"),
       ("bench.unattributed_s", "s"), ("bench.tracing_overhead_s", "s")]
)


def new_tracer() -> Tracer:
    return Tracer(keep=lambda name: not name.startswith(_AGGREGATED_ONLY))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the block, then restore the originals."""
    original_build = simulator.build_manager
    original_select = kernel_replay.select_kernel

    def build_manager(*args, **kwargs):
        manager = original_build(*args, **kwargs)
        tracer.managers.append(manager)
        return manager

    def select_kernel(manager):
        kernel, reason = original_select(manager)
        tracer.dispatch_reasons.append(reason)
        return kernel, reason

    def replay_span(trace, manager, *args, **kwargs):
        return f"kernel.{manager.name.lower()}.replay"

    try:
        tracer.patch(simulator, "build_manager",
                     tracer.wrap("mechanisms.build_manager", build_manager))
        tracer.patch(kernel_replay, "select_kernel",
                     tracer.wrap("kernel.select_kernel", select_kernel))
        tracer.patch(simulator, "simulate",
                     tracer.wrap(replay_span, simulator.simulate))
        for owner, attr, name in _WRAPPED:
            tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        tracer.restore()


def traced_metrics(tracer: Tracer, traced_pass, untraced_pass_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Host times come from the spans.  The simulated statistics are per
    mechanism over the pass's replays: counts summed over its cells,
    rates averaged.  ``untraced_pass_s`` is the median untraced pass,
    so the traced body minus it is the tracing overhead.
    """
    out: Dict[str, float] = {f"{span}_s": tracer.total_s(span) for span in _TIMED}
    for span in _COUNTED:
        out[f"{span}_calls"] = tracer.calls(span)
        out[f"{span}_s"] = tracer.total_s(span)
    out["runner.warm_map_s"] = traced_pass.warm_seconds
    out["runner.warm_hit_rate"] = traced_pass.warm_hit_rate
    out["kernel.fallback_replays"] = sum(
        not reason.startswith("specialised:") for reason in tracer.dispatch_reasons
    )
    for m in MECHANISMS:
        out[f"kernel.{m}.replay_s"] = tracer.total_s(f"kernel.{m}.replay")
        out[f"kernel.{m}.self_s"] = tracer.self_s(f"kernel.{m}.replay")

    # Replays that built a manager, in build order (sweep warm hits did not).
    built = [r for r in traced_pass.replays if r.dispatch != "cache-hit"]
    managers = tracer.managers
    if len(managers) != len(built):
        raise RuntimeError(
            f"traced pass built {len(managers)} managers for {len(built)} replays"
        )
    for m in MECHANISMS:
        mine = [(r.result, mgr) for r, mgr in zip(built, managers)
                if r.mechanism == m and r.result is not None]
        results = [result for result, _ in mine]
        paths = [mgr.memory.merged_service_paths() for _, mgr in mine]
        n = len(results) or 1
        out[f"core.{m}.migrations"] = sum(r.migrations for r in results)
        out[f"core.{m}.bytes_moved"] = sum(r.bytes_moved for r in results)
        out[f"dram.{m}.served"] = sum(r.served for r in results)
        out[f"dram.{m}.closed_form_served"] = sum(p.closed_form_served for p in paths)
        out[f"dram.{m}.scalar_fallback_served"] = sum(
            p.scalar_fallback_served for p in paths
        )
        out[f"dram.{m}.row_hit_rate_fast"] = sum(r.row_hit_rate_fast for r in results) / n
        out[f"dram.{m}.row_hit_rate_slow"] = sum(r.row_hit_rate_slow for r in results) / n
        out[f"system.{m}.ammat_ns"] = sum(r.ammat_ns for r in results) / n
        out[f"system.{m}.fast_service_fraction"] = (
            sum(r.fast_service_fraction for r in results) / n
        )

    body = tracer.total_s(BODY)
    out["bench.traced_body_s"] = body
    out["bench.layer_self_sum_s"] = tracer.total_self_s(exclude=BODY)
    out["bench.unattributed_s"] = tracer.self_s(BODY)
    out["bench.tracing_overhead_s"] = body - untraced_pass_s
    return out
