"""The flat-address-space tiered memory.

:class:`TieredMemory` glues an ordered list of :class:`MemoryDevice`
instances into one flat physical space: each tier owns a contiguous
span of the address range, in declaration order, and a single
:meth:`~TieredMemory.tier_of` lookup replaces the old scattered
``address < fast_bytes`` threshold math.  The paper's Figure 4 machine
is the two-tier case — :class:`HybridMemory` — with the die-stacked
device as tier 0 and the off-chip device as tier 1;
:class:`SingleLevelMemory` is the one-tier case used by the HBM-only
and DDR-only baseline configurations of Figures 8 and 10.  Three-tier
machines (HBM + DDR + a slow far tier, per MigrantStore/HM-Keeper) are
built by handing :class:`TieredMemory` a third device.

Everything is built from a :class:`MemoryGeometry`, so the paper-scale
and Python-scale machines share all code.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from ..common.errors import AddressError
from ..dram.controller import ControllerStats, ServicePathStats
from ..dram.devices import DDR4_1600_TIMING, HBM_TIMING, MemoryDevice
from ..dram.request import DEMAND
from ..dram.timing import DramTiming
from ..geometry import MemoryGeometry


def build_device(
    name: str,
    timing: DramTiming,
    capacity_bytes: int,
    channels: int,
    geometry: MemoryGeometry,
) -> MemoryDevice:
    """Construct a device with the geometry's bank/rank/row shape."""
    return MemoryDevice(
        name=name,
        timing=timing,
        capacity_bytes=capacity_bytes,
        channels=channels,
        ranks=geometry.ranks,
        banks=geometry.banks,
        row_bytes=geometry.row_bytes,
    )


class TieredMemory:
    """An ordered list of devices behind one flat physical address space.

    ``spans`` gives the addressable bytes each tier contributes to the
    flat space; it defaults to each device's capacity but may be
    smaller (:class:`SingleLevelMemory` pads its device to a power of
    two and addresses only ``total_bytes`` of it).  Tier 0 is the
    fastest/nearest tier by convention; migration mechanisms move pages
    toward lower tier indices.
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        tiers: Sequence[MemoryDevice],
        spans: Optional[Sequence[int]] = None,
    ) -> None:
        if not tiers:
            raise AddressError("a TieredMemory needs at least one tier")
        self.geometry = geometry
        self.tiers: List[MemoryDevice] = list(tiers)
        if spans is None:
            spans = [device.capacity_bytes for device in self.tiers]
        if len(spans) != len(self.tiers):
            raise AddressError(
                f"{len(self.tiers)} tiers but {len(spans)} address spans"
            )
        # Cumulative exclusive end offsets; _tier_ends[i] is the first
        # flat address past tier i, so bisect_right finds the tier.
        ends: List[int] = []
        total = 0
        for span in spans:
            total += span
            ends.append(total)
        self._tier_spans: Tuple[int, ...] = tuple(spans)
        self._tier_ends: Tuple[int, ...] = tuple(ends)
        self._limit = total
        # Dirty-channel tracking for peak_bus_free_ps: every controller
        # (tier 0's channels first, matching the kernels' flat indices)
        # reports into one shared set whenever it may advance its bus,
        # so the throttle probe scans only touched channels.
        self._controllers = [
            ctrl for device in self.tiers for ctrl in device.controllers
        ]
        self._dirty_channels: set = set()
        self._peak_bus_ps = 0
        for key, ctrl in enumerate(self._controllers):
            ctrl._dirty_sink = self._dirty_channels
            ctrl._dirty_key = key

    # -- tier addressing ------------------------------------------------------

    def tier_of(self, address: int) -> int:
        """Index of the tier whose span contains flat ``address``."""
        index = bisect_right(self._tier_ends, address)
        if index == len(self.tiers):
            raise AddressError(
                f"address {address:#x} outside the {self._limit:#x}-byte flat space"
            )
        return index

    def tier_offset(self, index: int) -> int:
        """First flat address of tier ``index``."""
        return self._tier_ends[index] - self._tier_spans[index]

    def locate(self, address: int) -> "tuple[int, MemoryDevice, int]":
        """Resolve a flat address to ``(tier index, device, local offset)``."""
        index = self.tier_of(address)
        return index, self.tiers[index], address - self.tier_offset(index)

    # -- two-/one-tier aliases ------------------------------------------------
    # Named views for code written against one shape: the two-tier
    # kernels and managers read `fast`/`slow`, the single-level manager
    # names itself after `device`.  Asking for the wrong shape raises
    # AttributeError; shape-generic code (stats, energy, the sanitizer,
    # the kernels' decoders) reads `tiers` instead.

    @property
    def fast(self) -> MemoryDevice:
        """Tier 0 of a multi-tier system (the die-stacked device)."""
        if len(self.tiers) < 2:
            raise AttributeError("single-level memory has no fast/slow split")
        return self.tiers[0]

    @property
    def slow(self) -> MemoryDevice:
        """Tier 1 of a multi-tier system (the near off-chip device)."""
        if len(self.tiers) < 2:
            raise AttributeError("single-level memory has no fast/slow split")
        return self.tiers[1]

    @property
    def device(self) -> MemoryDevice:
        """The sole device of a single-level system."""
        if len(self.tiers) != 1:
            raise AttributeError("multi-tier memory has no single device")
        return self.tiers[0]

    # -- request path ---------------------------------------------------------

    def access(
        self,
        address: int,
        is_write: bool,
        arrival_ps: int,
        kind: int = DEMAND,
        account_ps: Optional[int] = None,
    ) -> None:
        """Route one 64 B transaction by flat physical address."""
        ends = self._tier_ends
        index = 0 if address < ends[0] else bisect_right(ends, address)
        if index == len(ends):
            raise AddressError(
                f"address {address:#x} outside the {self._limit:#x}-byte flat space"
            )
        self.tiers[index].access(
            address - (ends[index] - self._tier_spans[index]),
            is_write,
            arrival_ps,
            kind,
            account_ps,
        )

    def flush(self) -> int:
        """Drain every controller; return the latest completion seen."""
        return max(device.flush() for device in self.tiers)

    def block_until(self, ps: int) -> None:
        """Stall every device until ``ps`` (HMA's OS/sort penalty)."""
        for device in self.tiers:
            device.block_until(ps)

    def peak_bus_free_ps(self) -> int:
        """The furthest-ahead bus timestamp across every channel.

        The simulator's CPU throttle compares this to the current trace
        time to detect saturation (see ``repro.system.simulator``).
        Incremental: bus timestamps never move backwards and every
        controller marks itself dirty when it may advance one, so each
        call folds only the channels touched since the last call into
        the cached peak — identical to a full scan, without one.
        """
        peak = self._peak_bus_ps
        dirty = self._dirty_channels
        if dirty:
            controllers = self._controllers
            for key in dirty:
                ctrl = controllers[key]
                ctrl._dirty = False
                bus_free = ctrl.bus_free_ps
                if bus_free > peak:
                    peak = bus_free
            dirty.clear()
            self._peak_bus_ps = peak
        return peak

    def merged_stats(self) -> ControllerStats:
        """Controller statistics summed over every tier."""
        merged = ControllerStats()
        for device in self.tiers:
            merged.merge(device.merged_stats())
        return merged

    def merged_service_paths(self) -> ServicePathStats:
        """Batched-path service counters summed over every tier."""
        merged = ServicePathStats()
        for device in self.tiers:
            merged.merge(device.merged_service_paths())
        return merged


class HybridMemory(TieredMemory):
    """Fast + slow devices behind one flat physical address space.

    The paper's two-tier machine, kept as a thin constructor over
    :class:`TieredMemory` so existing call sites and pickled cells
    survive the N-tier generalisation.
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        fast_timing: DramTiming = HBM_TIMING,
        slow_timing: DramTiming = DDR4_1600_TIMING,
    ) -> None:
        fast = build_device(
            fast_timing.name, fast_timing, geometry.fast_bytes, geometry.fast_channels,
            geometry,
        )
        slow = build_device(
            slow_timing.name, slow_timing, geometry.slow_bytes, geometry.slow_channels,
            geometry,
        )
        super().__init__(
            geometry, [fast, slow], [geometry.fast_bytes, geometry.slow_bytes]
        )


class SingleLevelMemory(TieredMemory):
    """A one-technology memory covering the whole flat space.

    Models the paper's 9 GB HBM-only upper bound (and the DDR-only
    lower bound of Figure 10).  Capacity is padded up to the next power
    of two above the flat space so the bit-sliced mapper applies; the
    padding is never addressed (the tier span stays ``total_bytes``).
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        timing: DramTiming = HBM_TIMING,
        channels: Optional[int] = None,
    ) -> None:
        capacity = 1
        while capacity < geometry.total_bytes:
            capacity <<= 1
        device = build_device(
            f"{timing.name}-only",
            timing,
            capacity,
            channels if channels is not None else geometry.fast_channels,
            geometry,
        )
        super().__init__(geometry, [device], [geometry.total_bytes])
