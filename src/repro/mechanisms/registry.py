"""The mechanism registry: name -> :class:`MechanismSpec` -> manager.

:func:`build_manager` (re-exported by :mod:`repro.system.simulator`)
resolves every mechanism name through this registry instead of a closed
if-chain, so a new mechanism is one :func:`register_mechanism` call
away from the simulator, the sweep runner, and the CLI listing — no
simulator edits required.

The seven paper mechanisms (``MANAGER_KINDS``) are registered here as
*canonical* specs: their factories are the original manager classes, so
registry-built managers are the same objects the pre-registry if-chain
produced — bit-identical by construction, proven by
``tests/test_mechanism_registry.py`` and the differential suite.  Novel
hybrids live in :mod:`repro.mechanisms.hybrids`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from ..common.errors import ConfigError
from ..common.units import ms
from ..core.mempod import MemPodManager
from ..dram.devices import (
    DDR4_1600_TIMING,
    DDR4_2400_TIMING,
    HBM_OVERCLOCKED_TIMING,
    HBM_TIMING,
    get_timing,
)
from ..geometry import MemoryGeometry
from ..managers import (
    CameoManager,
    HmaManager,
    MemoryManager,
    NoMigrationManager,
    SingleLevelManager,
    ThmManager,
)
from ..managers.base import ComposedManager
from ..system.hybrid import (
    HybridMemory,
    SingleLevelMemory,
    TieredMemory,
    build_device,
)
from .spec import MechanismSpec

#: The paper's five mechanisms plus the two single-technology bounds —
#: the set every figure sweeps and the differential suite proves
#: bit-identical across kernels.  Novel registered mechanisms extend
#: :func:`mechanism_names`, never this tuple.
MANAGER_KINDS = (
    "tlm",  # two-level memory, no migration (the normalisation baseline)
    "mempod",
    "hma",
    "thm",
    "cameo",
    "hbm-only",
    "ddr-only",
)

_REGISTRY: Dict[str, MechanismSpec] = {}


def register_mechanism(
    name: str, spec: MechanismSpec, replace: bool = False
) -> MechanismSpec:
    """Register ``spec`` under ``name``; validates it first.

    Names are unique: re-registering raises unless ``replace=True``
    (tests use ``replace`` to shadow a spec within a fixture).
    """
    if name != spec.name:
        raise ConfigError(
            f"registration name {name!r} does not match spec.name {spec.name!r}"
        )
    spec.validate()
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"mechanism {name!r} is already registered; pass replace=True "
            "to shadow it deliberately"
        )
    _REGISTRY[name] = spec
    return spec


def unregister_mechanism(name: str) -> None:
    """Remove a registered mechanism (test cleanup); canonical kinds stay."""
    if name in MANAGER_KINDS:
        raise ConfigError(f"cannot unregister canonical mechanism {name!r}")
    _REGISTRY.pop(name, None)


def get_mechanism(name: str) -> MechanismSpec:
    """Resolve a mechanism name; unknown names raise ``ConfigError``."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown mechanism {name!r}; registered mechanisms: "
            f"{', '.join(_REGISTRY)}"
        )
    return spec


def mechanism_names() -> Tuple[str, ...]:
    """Every registered mechanism, canonical kinds first."""
    return tuple(_REGISTRY)


def _build_descriptor_memory(
    spec: MechanismSpec,
    geometry: MemoryGeometry,
    window: int,
) -> "tuple[TieredMemory, MemoryGeometry]":
    """Construct the memory system for a tuple ``memory_kind`` descriptor.

    Each :class:`~repro.mechanisms.spec.TierSpec` row draws capacity
    and channels from the geometry column it names and divides the
    bytes by its ``capacity_div``, so the descriptor *carves* the
    experiment's flat space rather than growing it — a 3-tier spec
    addresses exactly the bytes (and replays exactly the traces) of
    its 2-tier baseline.  Returns the memory plus the tier-shaped
    geometry the manager should be built against (``total_bytes`` is
    preserved whenever the divisors tile the source columns).
    """
    tiers = spec.memory_kind
    assert isinstance(tiers, tuple)
    plan = []
    for index, tier in enumerate(tiers):
        if tier.source == "fast":
            source_bytes, channels = geometry.fast_bytes, geometry.fast_channels
        else:
            source_bytes, channels = geometry.slow_bytes, geometry.slow_channels
        tier_bytes = source_bytes // tier.capacity_div
        if tier_bytes == 0:
            raise ConfigError(
                f"mechanism {spec.name!r}: memory_kind[{index}] is a "
                f"zero-byte tier ({tier.source} column has {source_bytes} "
                f"bytes; capacity_div={tier.capacity_div})"
            )
        plan.append((tier_bytes, channels, get_timing(tier.timing)))

    if len(plan) == 1:
        _, channels, timing = plan[0]
        memory = SingleLevelMemory(
            geometry, timing=timing, channels=channels, window=window
        )
        return memory, geometry

    tier_geometry = replace(
        geometry,
        fast_bytes=plan[0][0],
        fast_channels=plan[0][1],
        slow_bytes=plan[1][0],
        slow_channels=plan[1][1],
        extra_tiers=tuple(
            (tier_bytes, channels, timing.name)
            for tier_bytes, channels, timing in plan[2:]
        ),
    )
    devices = [
        build_device(timing.name, timing, tier_bytes, channels,
                     tier_geometry, window)
        for tier_bytes, channels, timing in plan
    ]
    spans = [tier_bytes for tier_bytes, _, _ in plan]
    return TieredMemory(tier_geometry, devices, spans), tier_geometry


def build_manager(
    kind: str,
    geometry: MemoryGeometry,
    future_tech: bool = False,
    window: int = 8,
    **params,
) -> MemoryManager:
    """Construct the memory system and manager for mechanism ``kind``.

    ``future_tech`` selects the Section 6.3.4 parts (HBM at 4 GHz,
    DDR4-2400) and applies the spec's future-tech parameter overrides
    (tuple-descriptor specs name their timings explicitly, so only the
    parameter overrides apply to them); extra ``params`` are passed to
    the manager factory after being checked against the spec's
    ``valid_params`` (unknown kwargs raise
    :class:`~repro.common.errors.ConfigError` naming the legal ones).
    """
    spec = get_mechanism(kind)
    spec.validate_params(params)
    if future_tech:
        for key, value in spec.future_tech_overrides:
            params.setdefault(key, value)
    fast_timing = HBM_OVERCLOCKED_TIMING if future_tech else HBM_TIMING
    slow_timing = DDR4_2400_TIMING if future_tech else DDR4_1600_TIMING

    manager_geometry = geometry
    if isinstance(spec.memory_kind, tuple):
        memory, manager_geometry = _build_descriptor_memory(
            spec, geometry, window
        )
    elif spec.memory_kind == "fast-only":
        memory = SingleLevelMemory(geometry, timing=fast_timing, window=window)
    elif spec.memory_kind == "slow-only":
        memory = SingleLevelMemory(
            geometry, timing=slow_timing, channels=geometry.slow_channels,
            window=window,
        )
    else:
        memory = HybridMemory(
            geometry, fast_timing=fast_timing, slow_timing=slow_timing,
            window=window,
        )
    manager = spec.factory(memory, manager_geometry, **params)
    if isinstance(manager, ComposedManager):
        manager.swap_tiers = spec.resolved_swap_tiers()
    return manager


# -- canonical specs ---------------------------------------------------------
#
# One spec per paper mechanism; the building-block fields restate each
# design row of the paper's Table 1 in machine-checkable form.

register_mechanism("tlm", MechanismSpec(
    name="tlm",
    summary="two-level memory, pages pinned (normalisation baseline)",
    trigger="none",
    flexibility="none",
    remap_policy="none",
    tracker=None,
    factory=NoMigrationManager,
))

register_mechanism("mempod", MechanismSpec(
    name="mempod",
    summary="clustered interval migration with per-pod MEA tracking",
    trigger="interval",
    flexibility="pod",
    remap_policy="per-pod",
    tracker="repro.tracking.mea:MeaTracker",
    factory=MemPodManager,
    valid_params=(
        "interval_ps", "mea_counters", "mea_counter_bits", "mea_min_count",
        "cache_bytes",
    ),
))

register_mechanism("hma", MechanismSpec(
    name="hma",
    summary="OS epoch migration with full per-page counters",
    trigger="epoch",
    flexibility="global",
    remap_policy="page-table",
    tracker="repro.tracking.full_counters:FullCountersTracker",
    factory=HmaManager,
    valid_params=(
        "interval_ps", "sort_penalty_ps", "hot_threshold",
        "max_migrations_per_interval", "counter_bits", "penalty_mode",
        "cache_bytes",
    ),
    # The paper reduces HMA's fixed penalty 7 ms -> 4.2 ms to model the
    # faster future processor.
    future_tech_overrides=(("sort_penalty_ps", ms(4.2)),),
))

register_mechanism("thm", MechanismSpec(
    name="thm",
    summary="segment-restricted migration with competing counters",
    trigger="threshold",
    flexibility="segment",
    remap_policy="direct",
    tracker="repro.tracking.competing:CompetingCounterArray",
    factory=ThmManager,
    valid_params=("threshold", "counter_bits", "cache_bytes"),
))

register_mechanism("cameo", MechanismSpec(
    name="cameo",
    summary="line-granularity swap on every slow access",
    trigger="event",
    flexibility="group",
    remap_policy="direct",
    tracker=None,
    factory=CameoManager,
))

register_mechanism("hbm-only", MechanismSpec(
    name="hbm-only",
    summary="whole space served by the fast technology (upper bound)",
    trigger="none",
    flexibility="single",
    remap_policy="none",
    tracker=None,
    factory=SingleLevelManager,
    memory_kind="fast-only",
))

register_mechanism("ddr-only", MechanismSpec(
    name="ddr-only",
    summary="whole space served by the slow technology (lower bound)",
    trigger="none",
    flexibility="single",
    remap_policy="none",
    tracker=None,
    factory=SingleLevelManager,
    memory_kind="slow-only",
))

# Novel hybrid and tiered specs register themselves on import; keep
# this after the canonical registrations so they may compose canonical
# pieces.
from . import hybrids as _hybrids  # noqa: E402,F401
from . import tiered as _tiered  # noqa: E402,F401
