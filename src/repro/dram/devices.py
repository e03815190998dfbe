"""Concrete memory device model and the paper's Table 2 presets.

A :class:`MemoryDevice` bundles a technology (:class:`DramTiming`), a
topology (:class:`AddressMapper`), and one :class:`ChannelController`
per channel.  It services 64 B transactions addressed by *device byte
offset* — the hybrid memory layer (:mod:`repro.system.hybrid`) is
responsible for splitting the flat physical space into per-device
offsets.

Presets follow Table 2 of the paper:

* ``hbm_device`` — 1 GB die-stacked HBM: 8 channels x 1 rank x 16 banks,
  128-bit bus at 1 GHz, 8 KB rows, 7-7-7-17.
* ``ddr4_device`` — 8 GB off-chip DDR4-1600: 4 channels (the four slow
  MCs of Figure 4), 64-bit DDR bus at 800 MHz, 8 KB rows, 11-11-11-28.
* ``hbm_overclocked`` / ``ddr4_2400`` — the Section 6.3.4 future parts
  (same cycle-domain timing, 4 GHz and 1200 MHz clocks).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import require_positive_int
from ..common.units import ghz, gib, mhz
from .address import AddressMapper
from .controller import ChannelController, ControllerStats, ServicePathStats
from .request import DEMAND
from .timing import DramTiming

HBM_TIMING = DramTiming(
    name="HBM",
    freq_hz=ghz(1.0),
    bus_bits=128,
    data_rate=1,
    tcas=7,
    trcd=7,
    trp=7,
    tras=17,
    turnaround=2,       # wide on-package interface: cheap switches
    trefi=7800,         # 7.8 us at 1 GHz
    trfc=260,
)

DDR4_1600_TIMING = DramTiming(
    name="DDR4-1600",
    freq_hz=mhz(800),
    bus_bits=64,
    data_rate=2,
    tcas=11,
    trcd=11,
    trp=11,
    tras=28,
    turnaround=8,       # tWTR/tRTW-class bus direction penalty
    trefi=6240,         # 7.8 us at 800 MHz
    trfc=280,           # 350 ns
)

HBM_OVERCLOCKED_TIMING = HBM_TIMING.scaled("HBM-4GHz", ghz(4.0))
DDR4_2400_TIMING = DDR4_1600_TIMING.scaled("DDR4-2400", mhz(1200))

# A MigrantStore-style phase-change far tier: DDR-class bus, but array
# access an order of magnitude slower than DDR4-1600 (tRCD/tRAS cover
# the long set/reset latency) and no refresh — PCM cells are
# non-volatile, so trefi=0 legitimately disables the refresh machinery.
PCM_TIMING = DramTiming(
    name="PCM-800",
    freq_hz=mhz(400),
    bus_bits=64,
    data_rate=2,
    tcas=11,
    trcd=55,
    trp=55,
    tras=140,
    turnaround=8,
    trefi=0,
    trfc=0,
)

#: registry of timings addressable by name from tier descriptors
TIMINGS = {
    timing.name: timing
    for timing in (
        HBM_TIMING,
        DDR4_1600_TIMING,
        HBM_OVERCLOCKED_TIMING,
        DDR4_2400_TIMING,
        PCM_TIMING,
    )
}


def get_timing(name: str) -> DramTiming:
    """Look up a registered :class:`DramTiming` by name."""
    try:
        return TIMINGS[name]
    except KeyError:
        known = ", ".join(sorted(TIMINGS))
        raise KeyError(f"unknown timing {name!r}; registered: {known}") from None


ROW_BYTES = 8 * 1024


class MemoryDevice:
    """One memory technology instance with per-channel controllers."""

    def __init__(
        self,
        name: str,
        timing: DramTiming,
        capacity_bytes: int,
        channels: int,
        ranks: int,
        banks: int,
        row_bytes: int = ROW_BYTES,
    ) -> None:
        require_positive_int("channels", channels)
        self.name = name
        self.timing = timing
        self.capacity_bytes = capacity_bytes
        self.mapper = AddressMapper(
            capacity_bytes=capacity_bytes,
            channels=channels,
            ranks=ranks,
            banks=banks,
            row_bytes=row_bytes,
        )
        self.controllers: List[ChannelController] = [
            ChannelController(timing, self.mapper.banks_per_channel)
            for _ in range(channels)
        ]

    @property
    def channels(self) -> int:
        """Number of channels (= memory controllers) in this device."""
        return len(self.controllers)

    def access(
        self,
        offset: int,
        is_write: bool,
        arrival_ps: int,
        kind: int = DEMAND,
        account_ps: Optional[int] = None,
    ) -> int:
        """Enqueue one 64 B transaction; returns the target channel index."""
        channel, bank, row = self.mapper.fast_decode(offset)
        self.controllers[channel].enqueue(
            bank, row, is_write, arrival_ps, kind=kind, account_ps=account_ps
        )
        return channel

    def flush(self) -> int:
        """Drain every channel; return the latest completion time seen."""
        return max(ctrl.flush() for ctrl in self.controllers)

    def block_until(self, ps: int) -> None:
        """Stall the whole device until ``ps`` (see ChannelController)."""
        for ctrl in self.controllers:
            ctrl.block_until(ps)

    def merged_stats(self) -> ControllerStats:
        """Sum controller statistics across channels."""
        merged = ControllerStats()
        for ctrl in self.controllers:
            merged.merge(ctrl.stats)
        return merged

    def merged_service_paths(self) -> ServicePathStats:
        """Sum batched-path service counters across channels."""
        merged = ServicePathStats()
        for ctrl in self.controllers:
            merged.merge(ctrl.service_paths)
        return merged

    def row_buffer_hit_rate(self) -> float:
        """Row-buffer hit fraction across all banks of all channels."""
        hits = 0
        total = 0
        for ctrl in self.controllers:
            h, t = ctrl.row_buffer_stats()
            hits += h
            total += t
        return hits / total if total else 0.0


def hbm_device(timing: DramTiming = HBM_TIMING) -> MemoryDevice:
    """Table 2 die-stacked HBM: 1 GB, 8 channels, 16 banks, 8 KB rows."""
    return MemoryDevice(
        name=timing.name,
        timing=timing,
        capacity_bytes=gib(1),
        channels=8,
        ranks=1,
        banks=16,
    )


def ddr4_device(timing: DramTiming = DDR4_1600_TIMING) -> MemoryDevice:
    """Table 2 off-chip DDR4: 8 GB, 4 channels, 16 banks, 8 KB rows."""
    return MemoryDevice(
        name=timing.name,
        timing=timing,
        capacity_bytes=gib(8),
        channels=4,
        ranks=1,
        banks=16,
    )
