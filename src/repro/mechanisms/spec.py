"""Declarative mechanism specifications (the paper's Section 4 grammar).

A migration mechanism is a composition of five building blocks:
migration flexibility, remap table, activity tracking, migration
trigger, and migration datapath.  :class:`MechanismSpec` states a
mechanism's choice for the first four (every migrating manager shares
one datapath, :class:`~repro.core.datapath.MigrationEngine`) plus the
factory that assembles the concrete
:class:`~repro.managers.base.ComposedManager`; the registry in
:mod:`repro.mechanisms.registry` resolves names to specs and the lint
rule in :mod:`repro.analysis.lint` validates every registered spec
before a sweep can trip over it.

The declarative fields are *load-bearing* in three places:

* ``trigger``/``flexibility`` must match the manager class the factory
  builds — the fast replay kernel dispatches on that (trigger,
  flexibility) shape (:func:`repro.kernel.replay.select_kernel`);
* ``valid_params`` is the contract ``build_manager`` enforces before
  the constructor runs, so an unknown kwarg fails with a
  :class:`~repro.common.errors.ConfigError` naming the legal ones;
* :meth:`MechanismSpec.fingerprint` feeds the sweep cache
  (:mod:`repro.runner.pool`), so editing a registered spec invalidates
  cached results computed under the old definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..common.errors import ConfigError
from ..common.units import is_power_of_two
from ..dram.devices import TIMINGS

#: When migrations happen: at fixed interval boundaries (MemPod), at OS
#: epoch boundaries (HMA), when a counter crosses a threshold (THM), on
#: every qualifying access (CAMEO), or never (the baselines).
TRIGGERS = ("none", "interval", "epoch", "threshold", "event")

#: Where a page may migrate to: anywhere within its pod, anywhere in
#: fast memory ("global"), only its segment's fast frame, only its
#: congruence group's fast slot, nowhere ("none" — pinned two-level
#: placement), or the whole space is one technology ("single").
FLEXIBILITIES = ("none", "single", "pod", "global", "segment", "group")

#: Remap-table policy: per-pod sharded tables, the OS page table (no
#: modelled hardware), a direct one-entry-per-fast-slot table, or none.
REMAP_POLICIES = ("none", "per-pod", "page-table", "direct")

#: Which memory system the factory is handed, as a shorthand name.
#: ``memory_kind`` may instead be a tuple of :class:`TierSpec` rows
#: describing an N-tier system explicitly; the shorthands are the
#: legacy two-/one-tier spellings kept for the canonical specs.
MEMORY_KINDS = ("hybrid", "fast-only", "slow-only")

#: Which geometry column a tier descriptor draws capacity/channels from.
TIER_SOURCES = ("fast", "slow")


@dataclass(frozen=True)
class TierSpec:
    """One tier of an N-tier ``memory_kind`` descriptor.

    Specs are geometry-independent (the same mechanism runs on the
    paper-scale and Python-scale machines), so a tier does not name an
    absolute capacity: it draws ``source``'s bytes and channels from
    whatever geometry the experiment supplies and divides the bytes by
    ``capacity_div``.  The descriptor for the paper's own machine is
    ``(TierSpec("HBM", "fast"), TierSpec("DDR4-1600", "slow"))``; a
    third tier carves the slow column, e.g. ``TierSpec("PCM-800",
    "slow", 2)`` for a far tier taking half the slow capacity.
    """

    timing: str
    source: str = "slow"
    capacity_div: int = 1


def validate_tiers(
    mechanism: str, tiers: "Tuple[TierSpec, ...]"
) -> None:
    """Validate an N-tier descriptor; raises ``ConfigError``.

    Checks each row's timing against the registered
    :data:`~repro.dram.devices.TIMINGS`, the capacity source, and the
    divisor — a non-power-of-two or non-positive ``capacity_div`` is
    the spec-level shape of a zero-byte tier (the byte-level check runs
    at build time, once a geometry is known).
    """
    if not tiers:
        raise ConfigError(
            f"mechanism {mechanism!r}: memory_kind tier descriptor is empty"
        )
    for index, tier in enumerate(tiers):
        name = f"memory_kind[{index}]"
        if not isinstance(tier, TierSpec):
            raise ConfigError(
                f"mechanism {mechanism!r}: {name} is not a TierSpec"
            )
        if tier.timing not in TIMINGS:
            known = ", ".join(sorted(TIMINGS))
            raise ConfigError(
                f"mechanism {mechanism!r}: {name}.timing {tier.timing!r} "
                f"is not a registered timing (known: {known})"
            )
        if tier.source not in TIER_SOURCES:
            raise ConfigError(
                f"mechanism {mechanism!r}: {name}.source {tier.source!r} "
                f"is not one of {TIER_SOURCES}"
            )
        if (
            not isinstance(tier.capacity_div, int)
            or tier.capacity_div < 1
            or not is_power_of_two(tier.capacity_div)
        ):
            raise ConfigError(
                f"mechanism {mechanism!r}: {name}.capacity_div "
                f"{tier.capacity_div!r} must be a positive power of two "
                "(larger divisors make the tier zero-byte)"
            )


@dataclass(frozen=True)
class MechanismSpec:
    """One mechanism, stated as its Section-4 building blocks.

    ``factory`` is called as ``factory(memory, geometry, **params)`` and
    must return a manager whose ``trigger``/``flexibility`` class
    attributes equal the spec's (validated by :meth:`validate` via
    ``manager_shape`` when the factory is a manager class).  ``tracker``
    is the activity-tracking factory as an importable ``module:attr``
    path, or ``None`` for mechanisms that track nothing.
    """

    name: str
    summary: str
    trigger: str
    flexibility: str
    remap_policy: str
    tracker: Optional[str]
    factory: Callable[..., Any]
    valid_params: Tuple[str, ...] = ()
    memory_kind: Union[str, Tuple[TierSpec, ...]] = "hybrid"
    #: parameter defaults applied (if not given) under ``future_tech``
    future_tech_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: tier index pairs whose pages may swap; ``None`` derives the
    #: default — ``((0, 1),)`` on multi-tier systems, ``()`` on
    #: single-level ones.  Same-tier swaps are always legal (a composed
    #: remap walks through same-tier frame exchanges when evicting).
    swap_tiers: Optional[Tuple[Tuple[int, int], ...]] = None
    #: inclusive numeric bounds checked by :meth:`validate_params`,
    #: as ``(param_name, low, high)`` rows
    param_ranges: Tuple[Tuple[str, float, float], ...] = ()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the spec is internally legal; raises ``ConfigError``.

        Run by :func:`~repro.mechanisms.registry.register_mechanism`,
        so a bad spec fails at import time, before it can reach a
        sweep; specs are frozen, so a registered spec stays valid.
        """
        if not self.name or self.name != self.name.strip():
            raise ConfigError(f"mechanism name {self.name!r} is empty or padded")
        if self.trigger not in TRIGGERS:
            raise ConfigError(
                f"mechanism {self.name!r}: trigger {self.trigger!r} is not "
                f"one of {TRIGGERS}"
            )
        if self.flexibility not in FLEXIBILITIES:
            raise ConfigError(
                f"mechanism {self.name!r}: flexibility {self.flexibility!r} "
                f"is not one of {FLEXIBILITIES}"
            )
        if self.remap_policy not in REMAP_POLICIES:
            raise ConfigError(
                f"mechanism {self.name!r}: remap_policy {self.remap_policy!r} "
                f"is not one of {REMAP_POLICIES}"
            )
        if isinstance(self.memory_kind, str):
            if self.memory_kind not in MEMORY_KINDS:
                raise ConfigError(
                    f"mechanism {self.name!r}: memory_kind {self.memory_kind!r} "
                    f"is not one of {MEMORY_KINDS} (or a tuple of TierSpec)"
                )
        elif isinstance(self.memory_kind, tuple):
            validate_tiers(self.name, self.memory_kind)
        else:
            raise ConfigError(
                f"mechanism {self.name!r}: memory_kind must be one of "
                f"{MEMORY_KINDS} or a tuple of TierSpec"
            )
        self._validate_swap_tiers()
        self._validate_param_ranges()
        if not callable(self.factory):
            raise ConfigError(f"mechanism {self.name!r}: factory is not callable")
        shape = manager_shape(self.factory)
        if shape is not None and shape != (self.trigger, self.flexibility):
            raise ConfigError(
                f"mechanism {self.name!r} declares shape "
                f"({self.trigger!r}, {self.flexibility!r}) but its factory "
                f"{self.factory.__name__} has shape {shape!r} — the kernel "
                "dispatcher keys on the declared shape, so they must agree"
            )
        for key, _ in self.future_tech_overrides:
            if key not in self.valid_params:
                raise ConfigError(
                    f"mechanism {self.name!r}: future-tech override "
                    f"{key!r} is not a valid parameter"
                )
        self.resolve_tracker()

    # -- tier topology -----------------------------------------------------

    def tier_count(self) -> int:
        """Number of memory tiers this spec's system exposes."""
        if isinstance(self.memory_kind, tuple):
            return len(self.memory_kind)
        return 2 if self.memory_kind == "hybrid" else 1

    def resolved_swap_tiers(self) -> Tuple[Tuple[int, int], ...]:
        """The legal migrating tier pairs, with the default applied."""
        if self.swap_tiers is not None:
            return self.swap_tiers
        return ((0, 1),) if self.tier_count() >= 2 else ()

    def _validate_swap_tiers(self) -> None:
        if self.swap_tiers is None:
            return
        tiers = self.tier_count()
        for pair in self.swap_tiers:
            if (
                len(pair) != 2
                or not all(isinstance(t, int) for t in pair)
                or not 0 <= pair[0] < pair[1]
            ):
                raise ConfigError(
                    f"mechanism {self.name!r}: swap_tiers entry {pair!r} must "
                    "be an ordered (low, high) pair of distinct tier indices"
                )
            if pair[1] >= tiers:
                raise ConfigError(
                    f"mechanism {self.name!r}: swap_tiers pair {pair!r} is "
                    f"illegal — the system has only {tiers} tier(s)"
                )

    def _validate_param_ranges(self) -> None:
        for row in self.param_ranges:
            if len(row) != 3:
                raise ConfigError(
                    f"mechanism {self.name!r}: param_ranges entry {row!r} "
                    "must be (name, low, high)"
                )
            key, low, high = row
            if key not in self.valid_params:
                raise ConfigError(
                    f"mechanism {self.name!r}: param_ranges names {key!r}, "
                    "which is not a valid parameter"
                )
            if not low <= high:
                raise ConfigError(
                    f"mechanism {self.name!r}: param_ranges for {key!r} has "
                    f"low {low!r} > high {high!r}"
                )

    def validate_params(self, params: Dict[str, Any]) -> None:
        """Reject unknown or out-of-range constructor kwargs by name."""
        unknown = sorted(set(params) - set(self.valid_params))
        if unknown:
            accepted = (
                ", ".join(sorted(self.valid_params))
                if self.valid_params
                else "none"
            )
            raise ConfigError(
                f"mechanism {self.name!r} got unknown parameter(s) "
                f"{unknown}; valid parameters: {accepted}"
            )
        for key, low, high in self.param_ranges:
            if key in params and not low <= params[key] <= high:
                raise ConfigError(
                    f"mechanism {self.name!r}: parameter {key!r}="
                    f"{params[key]!r} outside the legal range "
                    f"[{low}, {high}]"
                )

    def resolve_tracker(self) -> Optional[Callable[..., Any]]:
        """Import and return the activity-tracker factory (or ``None``).

        Raises ``ConfigError`` when the declared path does not import —
        the lint rule calls this so a typo fails ``repro lint``.
        """
        if self.tracker is None:
            return None
        module_name, _, attr = self.tracker.partition(":")
        if not module_name or not attr:
            raise ConfigError(
                f"mechanism {self.name!r}: tracker {self.tracker!r} is not "
                "a 'module:attr' path"
            )
        try:
            module = import_module(module_name)
        except ImportError as error:
            raise ConfigError(
                f"mechanism {self.name!r}: tracker module "
                f"{module_name!r} does not import ({error})"
            ) from error
        factory = getattr(module, attr, None)
        if factory is None:
            raise ConfigError(
                f"mechanism {self.name!r}: tracker {self.tracker!r} names "
                f"no attribute {attr!r} in {module_name!r}"
            )
        return factory

    # -- cache identity ----------------------------------------------------

    def fingerprint(self) -> Dict[str, Any]:
        """Deterministic JSON-able identity for the sweep cache."""
        if isinstance(self.memory_kind, tuple):
            memory_kind: Any = [
                {
                    "timing": tier.timing,
                    "source": tier.source,
                    "capacity_div": tier.capacity_div,
                }
                for tier in self.memory_kind
            ]
        else:
            memory_kind = self.memory_kind
        return {
            "name": self.name,
            "trigger": self.trigger,
            "flexibility": self.flexibility,
            "remap_policy": self.remap_policy,
            "tracker": self.tracker,
            "memory_kind": memory_kind,
            "swap_tiers": [list(pair) for pair in self.resolved_swap_tiers()],
            "param_ranges": sorted(list(row) for row in self.param_ranges),
            "factory": f"{self.factory.__module__}:{self.factory.__qualname__}",
            "valid_params": sorted(self.valid_params),
            "future_tech_overrides": sorted(self.future_tech_overrides),
        }


def manager_shape(factory: Callable[..., Any]) -> Optional[Tuple[str, str]]:
    """The (trigger, flexibility) a manager-class factory declares.

    ``None`` for plain-function factories, whose shape cannot be read
    statically (the built manager still carries it).
    """
    trigger = getattr(factory, "trigger", None)
    flexibility = getattr(factory, "flexibility", None)
    if isinstance(trigger, str) and isinstance(flexibility, str):
        return trigger, flexibility
    return None
