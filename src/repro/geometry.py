"""Machine geometry: capacities, topology, and the pod partition.

:class:`MemoryGeometry` is the single source of truth for "how big is
everything" — both the workload substrate (footprints are expressed as
fractions of fast-memory capacity) and the system layer (device and pod
construction) derive from it.

Two presets are provided:

* :func:`paper_geometry` — the exact Table 2 machine: 1 GB HBM over
  8 channels + 8 GB DDR4 over 4 channels, 2 KB pages, 4 Pods.
* :func:`scaled_geometry` — the same *shape* divided by ``scale``
  (default 32: 32 MB + 256 MB).  Python is roughly three orders of
  magnitude slower than the paper's C++ Ramulator, so experiments run
  on a proportionally smaller machine with proportionally smaller
  workload footprints; every capacity *ratio* the paper's conclusions
  depend on (1:8 fast:slow, footprint vs. fast capacity, pages per row)
  is preserved.  See DESIGN.md Section 5.

The pod partition follows Figure 4: with 8 fast channels and 4 slow
channels, Pod *i* owns fast channels ``{2i, 2i+1}`` and slow channel
``i``.  Because the device address mapper stripes *rows* across
channels, the helpers here convert between global page numbers and
per-pod page slots in O(1) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .common.config import require_multiple, require_power_of_two, require_positive_int
from .common.errors import AddressError, ConfigError
from .common.units import gib, is_power_of_two

PAGE_BYTES_DEFAULT = 2 * 1024
ROW_BYTES_DEFAULT = 8 * 1024


@dataclass(frozen=True)
class MemoryGeometry:
    """Capacities and topology of the tiered machine.

    The first two tiers keep their historical ``fast_*``/``slow_*``
    field names (the paper's two-level machine); tiers beyond the
    second are declared in ``extra_tiers`` as ``(bytes, channels,
    timing_name)`` rows.  The N-entry tier table —
    :meth:`tier_bytes`/:meth:`tier_pages` over ``tier_count`` tiers —
    is derived from all three, so two-level geometries
    (``extra_tiers=()``) are bit-for-bit what they always were.
    """

    fast_bytes: int
    slow_bytes: int
    fast_channels: int
    slow_channels: int
    banks: int
    ranks: int
    pods: int
    page_bytes: int = PAGE_BYTES_DEFAULT
    row_bytes: int = ROW_BYTES_DEFAULT
    #: tiers past the fast/slow pair: (bytes, channels, timing name) each
    extra_tiers: Tuple[Tuple[int, int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in (
            "fast_bytes",
            "slow_bytes",
            "fast_channels",
            "slow_channels",
            "banks",
            "ranks",
            "pods",
            "page_bytes",
            "row_bytes",
        ):
            require_positive_int(name, getattr(self, name))
        require_power_of_two("page_bytes", self.page_bytes)
        require_power_of_two("row_bytes", self.row_bytes)
        require_power_of_two("fast_channels", self.fast_channels)
        require_power_of_two("slow_channels", self.slow_channels)
        if self.row_bytes < self.page_bytes:
            raise ConfigError(
                "row_bytes must be >= page_bytes: the paper's co-location "
                "effect requires whole pages inside one row"
            )
        require_multiple("fast_channels", self.fast_channels, "pods", self.pods)
        require_multiple("slow_channels", self.slow_channels, "pods", self.pods)
        require_multiple("fast_bytes", self.fast_bytes, "row stripe",
                         self.row_bytes * self.fast_channels)
        require_multiple("slow_bytes", self.slow_bytes, "row stripe",
                         self.row_bytes * self.slow_channels)
        if not is_power_of_two(self.fast_bytes) or not is_power_of_two(self.slow_bytes):
            raise ConfigError("capacities must be powers of two for bit-sliced mapping")
        # Normalise extra_tiers so list-of-lists input still hashes and
        # serialises as the canonical tuple-of-tuples form.
        object.__setattr__(
            self, "extra_tiers", tuple(tuple(row) for row in self.extra_tiers)
        )
        for index, row in enumerate(self.extra_tiers):
            name = f"extra_tiers[{index}]"
            if len(row) != 3:
                raise ConfigError(f"{name} must be (bytes, channels, timing_name)")
            tier_bytes, tier_channels, timing_name = row
            require_positive_int(f"{name}.bytes", tier_bytes)
            require_positive_int(f"{name}.channels", tier_channels)
            require_power_of_two(f"{name}.channels", tier_channels)
            if not is_power_of_two(tier_bytes):
                raise ConfigError(
                    f"{name}.bytes must be a power of two for bit-sliced mapping"
                )
            require_multiple(f"{name}.bytes", tier_bytes, "row stripe",
                             self.row_bytes * tier_channels)
            if not isinstance(timing_name, str) or not timing_name:
                raise ConfigError(f"{name}.timing_name must be a non-empty string")

    # -- derived counts --------------------------------------------------

    @property
    def fast_pages(self) -> int:
        """Total 2 KB page slots in fast memory."""
        return self.fast_bytes // self.page_bytes

    @property
    def slow_pages(self) -> int:
        """Total 2 KB page slots in slow memory."""
        return self.slow_bytes // self.page_bytes

    @property
    def total_pages(self) -> int:
        """Page slots across the whole flat address space."""
        return self.total_bytes // self.page_bytes

    @property
    def total_bytes(self) -> int:
        """Flat physical address space size (every tier)."""
        return (
            self.fast_bytes
            + self.slow_bytes
            + sum(row[0] for row in self.extra_tiers)
        )

    # -- the N-entry tier table --------------------------------------------
    #
    # Tier 0 is the fast device, tier 1 the slow device, tiers >= 2 the
    # extra_tiers rows, each owning a contiguous span of the flat space
    # in that order.

    @property
    def tier_count(self) -> int:
        """Number of tiers in the flat space (>= 2)."""
        return 2 + len(self.extra_tiers)

    def tier_bytes(self, tier: int) -> int:
        """Capacity of tier ``tier``."""
        if tier == 0:
            return self.fast_bytes
        if tier == 1:
            return self.slow_bytes
        try:
            return self.extra_tiers[tier - 2][0]
        except IndexError:
            raise AddressError(f"tier {tier} out of range") from None

    def tier_pages(self, tier: int) -> int:
        """Page slots in tier ``tier``."""
        return self.tier_bytes(tier) // self.page_bytes

    def page_tier(self, page: int) -> int:
        """Index of the tier whose span contains flat page ``page``."""
        self._check_page(page)
        end_pages = 0
        for tier in range(self.tier_count):
            end_pages += self.tier_pages(tier)
            if page < end_pages:
                return tier
        raise AddressError(f"page {page} outside flat space")  # pragma: no cover

    @property
    def managed_pages(self) -> int:
        """Pages in the migrating fast/slow pair (tiers 0 and 1).

        Tiers beyond the second are served in place by default; pod
        partitioning and the eviction scans cover only this range.
        """
        return self.fast_pages + self.slow_pages

    @property
    def pages_per_row(self) -> int:
        """Pages sharing one DRAM row buffer."""
        return self.row_bytes // self.page_bytes

    @property
    def lines_per_page(self) -> int:
        """64 B transactions needed to move one page (one direction)."""
        return self.page_bytes // 64

    @property
    def fast_channels_per_pod(self) -> int:
        """Fast-memory channels owned by each pod."""
        return self.fast_channels // self.pods

    @property
    def slow_channels_per_pod(self) -> int:
        """Slow-memory channels owned by each pod."""
        return self.slow_channels // self.pods

    @property
    def fast_pages_per_pod(self) -> int:
        """Fast page slots owned by each pod."""
        return self.fast_pages // self.pods

    @property
    def slow_pages_per_pod(self) -> int:
        """Slow page slots owned by each pod."""
        return self.slow_pages // self.pods

    @property
    def pages_per_pod(self) -> int:
        """All page slots (fast + slow) owned by each pod."""
        return self.fast_pages_per_pod + self.slow_pages_per_pod

    # -- flat address space layout ----------------------------------------
    #
    # Flat page number p:
    #   p <  fast_pages           -> fast device offset p * page_bytes
    #   p >= fast_pages           -> slow device offset (p - fast_pages) * page_bytes

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.total_pages:
            raise AddressError(f"page {page} outside flat space of {self.total_pages}")

    # -- pod ownership ----------------------------------------------------
    #
    # Within a device, the row-granularity channel stripe means page p's
    # channel is (p // pages_per_row) % channels.  Pod ownership follows
    # from channel ownership.

    def fast_page_pod(self, page: int) -> int:
        """Pod owning fast page ``page`` (a flat page < fast_pages)."""
        channel = (page // self.pages_per_row) % self.fast_channels
        return channel // self.fast_channels_per_pod

    def slow_page_pod(self, page: int) -> int:
        """Pod owning slow page ``page`` (a flat page >= fast_pages)."""
        channel = ((page - self.fast_pages) // self.pages_per_row) % self.slow_channels
        return channel // self.slow_channels_per_pod

    def page_pod(self, page: int) -> int:
        """Pod owning any flat page."""
        self._check_page(page)
        if page < self.fast_pages:
            return self.fast_page_pod(page)
        return self.slow_page_pod(page)

    # -- per-pod page slot enumeration -------------------------------------
    #
    # Each pod needs a dense index over its own fast slots (the MemPod
    # eviction scan walks fast slots sequentially) and over all its slots
    # (remap tables are per-pod).  The stripe is periodic with period
    # pages_per_row * channels, so slot -> page is O(1).

    def pod_fast_slot_to_page(self, pod: int, slot: int) -> int:
        """The flat page number of a pod's ``slot``-th fast page."""
        if not 0 <= pod < self.pods:
            raise AddressError(f"pod {pod} out of range")
        if not 0 <= slot < self.fast_pages_per_pod:
            raise AddressError(f"fast slot {slot} out of range for pod {pod}")
        ppr = self.pages_per_row
        cpp = self.fast_channels_per_pod
        row_group, rem = divmod(slot, ppr * cpp)
        chan_in_pod, page_in_row = divmod(rem, ppr)
        channel = pod * cpp + chan_in_pod
        return (row_group * self.fast_channels + channel) * ppr + page_in_row

    def pod_slow_slot_to_page(self, pod: int, slot: int) -> int:
        """The flat page number of a pod's ``slot``-th slow page."""
        if not 0 <= pod < self.pods:
            raise AddressError(f"pod {pod} out of range")
        if not 0 <= slot < self.slow_pages_per_pod:
            raise AddressError(f"slow slot {slot} out of range for pod {pod}")
        ppr = self.pages_per_row
        cpp = self.slow_channels_per_pod
        row_group, rem = divmod(slot, ppr * cpp)
        chan_in_pod, page_in_row = divmod(rem, ppr)
        channel = pod * cpp + chan_in_pod
        return self.fast_pages + (row_group * self.slow_channels + channel) * ppr + page_in_row


def paper_geometry(pods: int = 4) -> MemoryGeometry:
    """The exact Table 2 machine: 1 GB HBM + 8 GB DDR4, four Pods."""
    return MemoryGeometry(
        fast_bytes=gib(1),
        slow_bytes=gib(8),
        fast_channels=8,
        slow_channels=4,
        banks=16,
        ranks=1,
        pods=pods,
    )


def scaled_geometry(scale: int = 32, pods: int = 4) -> MemoryGeometry:
    """The Table 2 machine with capacities divided by ``scale``.

    ``scale`` must be a power of two so capacities stay bit-sliceable.
    Channel counts, bank counts, page and row sizes are *not* scaled:
    the machine keeps its parallelism and its pages-per-row ratio, only
    the rows-per-bank depth shrinks.
    """
    require_power_of_two("scale", scale)
    return MemoryGeometry(
        fast_bytes=gib(1) // scale,
        slow_bytes=gib(8) // scale,
        fast_channels=8,
        slow_channels=4,
        banks=16,
        ranks=1,
        pods=pods,
    )
