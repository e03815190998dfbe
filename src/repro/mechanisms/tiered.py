"""Mechanisms that exercise the N-tier memory grammar.

Two registered specs demonstrate what the tier-descriptor ``memory_kind``
and the tier-legality fields buy beyond the paper's fast/slow pair:

* ``mempod-3tier`` (:class:`TieredMemPodManager`) — the paper's MemPod
  migrating between HBM and a *half-capacity* DDR4 tier, with the other
  half of the slow column replaced by a MigrantStore-style PCM far tier
  that is served strictly in place.  The descriptor carves the
  experiment's existing flat space (DDR4 and PCM each take half the
  slow column), so ``total_bytes`` is preserved and the 3-tier system
  replays exactly the traces of its 2-tier baseline — the comparison
  EXPERIMENTS.md's third-tier analysis runs.  ``swap_tiers=((0, 1),)``
  declares migration legal only between HBM and DDR4; the sanitizer's
  tier-closure check proves no swap ever touches the PCM tier.
* ``mempod-bypass`` (:class:`BypassingMemPodManager`) — MemPod with a
  ``bypass_probability`` axis: each record independently bypasses the
  MEA tracking path with probability ``p`` (translation still applies
  — remapped data must be found wherever it lives), modelling a
  sampling activity tracker that observes only a fraction of the
  stream.  Draws come from a :class:`~repro.common.rng.DeterministicRng`
  child stream, so equal seeds give equal runs; the legal range of
  ``p`` is declared in the spec's ``param_ranges`` and enforced by
  ``validate_params``.

Both managers are subclasses of the canonical :class:`MemPodManager`
(and ``mempod-3tier`` additionally runs a >2-tier memory), so
:func:`repro.kernel.replay.select_kernel` refuses a specialised kernel
for them — ``fallback:multi-tier`` / ``fallback:subclass`` — and every
run takes the bit-accurate reference loop.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..common.rng import DeterministicRng
from ..core.mempod import MemPodManager
from ..geometry import MemoryGeometry
from ..system.hybrid import TieredMemory
from .registry import register_mechanism
from .spec import MechanismSpec, TierSpec

DEFAULT_BYPASS_PROBABILITY = 0.25
DEFAULT_BYPASS_SEED = 17


class TieredMemPodManager(MemPodManager):
    """MemPod over an N-tier memory: pods manage tiers 0-1, deeper
    tiers are served in place.

    The pod partition, MEA tracking, and interval migration all operate
    on the managed prefix of the page space (the fast + slow columns);
    a request beyond it is timed and ticked like any other but never
    observed, translated, or migrated — the far tier is static by
    design (its pages have no fast frames to compete for).
    """

    name = "MemPod-3tier"

    def __init__(
        self,
        memory: TieredMemory,
        geometry: MemoryGeometry,
        **params,
    ) -> None:
        super().__init__(memory, geometry, **params)
        self._managed_pages = geometry.managed_pages

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        page = address >> self._page_shift
        if page >= self._managed_pages:
            # Far-tier access: advance interval machinery, serve in place.
            self._tick(arrival_ps)
            self.memory.access(address, is_write, arrival_ps)
            return
        super().handle(address, is_write, arrival_ps, core)


class BypassingMemPodManager(MemPodManager):
    """MemPod whose tracker observes each record with probability
    ``1 - bypass_probability`` (``mempod-bypass``).

    The bypass decision is drawn per record from a deterministic
    labelled RNG stream before anything else happens, so a bypassed
    record costs exactly one draw plus the untracked request path:
    remap translation, blocking, and the metadata cache still apply —
    only the MEA observation (and therefore migration pressure) is
    skipped.
    """

    name = "MemPod-bypass"

    def __init__(
        self,
        memory,
        geometry: MemoryGeometry,
        bypass_probability: float = DEFAULT_BYPASS_PROBABILITY,
        rng_seed: int = DEFAULT_BYPASS_SEED,
        **params,
    ) -> None:
        super().__init__(memory, geometry, **params)
        self.bypass_probability = float(bypass_probability)
        if not 0.0 <= self.bypass_probability <= 1.0:
            raise ConfigError(
                f"bypass_probability={bypass_probability!r} outside [0.0, 1.0]"
            )
        self._rng = DeterministicRng(int(rng_seed)).child("mempod-bypass")
        self.bypassed = 0

    def handle(self, address: int, is_write: bool, arrival_ps: int, core: int) -> None:
        if self._rng.random() >= self.bypass_probability:
            super().handle(address, is_write, arrival_ps, core)
            return
        # Bypassed: the canonical path minus pod.observe(page).
        self.bypassed += 1
        self._tick(arrival_ps)
        page = address >> self._page_shift
        if page < self._fast_pages:
            pod_id = (page // self._ppr) % self._fast_chan // self._fast_cpp
        else:
            pod_id = (
                ((page - self._fast_pages) // self._ppr) % self._slow_chan
            ) // self._slow_cpp
        pod = self.pods[pod_id]
        penalty_ps = self._block_penalty_ps(page, arrival_ps)
        if self._caches is not None:
            penalty_ps += self._remap_lookup(pod, page, arrival_ps)
        frame = pod.translate(page)
        new_address = (frame << self._page_shift) | (address & self._page_mask)
        self.memory.access(
            new_address, is_write, arrival_ps, account_ps=arrival_ps - penalty_ps
        )

register_mechanism("mempod-3tier", MechanismSpec(
    name="mempod-3tier",
    summary="MemPod over HBM + half-DDR4 with a static PCM far tier",
    trigger="interval",
    flexibility="pod",
    remap_policy="per-pod",
    tracker="repro.tracking.mea:MeaTracker",
    factory=TieredMemPodManager,
    valid_params=(
        "interval_ps", "mea_counters", "mea_counter_bits", "mea_min_count",
        "cache_bytes",
    ),
    memory_kind=(
        TierSpec("HBM", source="fast"),
        TierSpec("DDR4-1600", source="slow", capacity_div=2),
        TierSpec("PCM-800", source="slow", capacity_div=2),
    ),
    swap_tiers=((0, 1),),
))

register_mechanism("mempod-bypass", MechanismSpec(
    name="mempod-bypass",
    summary="MemPod with probabilistic per-record tracker bypass",
    trigger="interval",
    flexibility="pod",
    remap_policy="per-pod",
    tracker="repro.tracking.mea:MeaTracker",
    factory=BypassingMemPodManager,
    valid_params=(
        "interval_ps", "mea_counters", "mea_counter_bits", "mea_min_count",
        "cache_bytes", "bypass_probability", "rng_seed",
    ),
    param_ranges=(("bypass_probability", 0.0, 1.0),),
))
