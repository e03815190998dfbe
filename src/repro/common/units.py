"""Unit helpers: time, capacity, and frequency conversions.

The whole simulator keeps global time as an **integer count of
picoseconds**.  Integer time makes every run bit-for-bit reproducible
(no float accumulation drift) and is fine-grained enough to express both
a 4 GHz HBM bus period (250 ps) and a 100 ms HMA interval (10^11 ps)
without rounding surprises.

Capacities are plain integers counting bytes.  The helpers here exist so
configuration code reads like the paper ("1 GiB of HBM", "50 us
intervals") instead of raw exponents.
"""

from __future__ import annotations

from .errors import ConfigError

# --- time ------------------------------------------------------------------

PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return round(value * NS)


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return round(value * MS)


def seconds(value: float) -> int:
    """Convert seconds to integer picoseconds."""
    return round(value * S)


def to_ns(picos: int) -> float:
    """Express a picosecond count in nanoseconds (for reporting only)."""
    return picos / NS


# --- capacity ---------------------------------------------------------------

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def kib(value: float) -> int:
    """Convert KiB to bytes."""
    return round(value * KIB)


def mib(value: float) -> int:
    """Convert MiB to bytes."""
    return round(value * MIB)


def gib(value: float) -> int:
    """Convert GiB to bytes."""
    return round(value * GIB)


# --- frequency --------------------------------------------------------------


def period_ps(freq_hz: float) -> int:
    """Return the clock period, in picoseconds, of a frequency in Hz.

    Raises :class:`ConfigError` for non-positive frequencies, and refuses
    frequencies above 1 THz whose period would round to zero picoseconds
    (a zero period would make bus occupancy vanish and silently corrupt
    timing).
    """
    if freq_hz <= 0:
        raise ConfigError(f"frequency must be positive, got {freq_hz!r}")
    period = round(S / freq_hz)
    if period <= 0:
        raise ConfigError(f"frequency {freq_hz!r} Hz has a sub-picosecond period")
    return period


def ghz(value: float) -> float:
    """Express a GHz value in Hz."""
    return value * 1e9


def mhz(value: float) -> float:
    """Express a MHz value in Hz."""
    return value * 1e6


# --- misc -------------------------------------------------------------------


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of a power-of-two integer, raising otherwise.

    Address interleaving relies on power-of-two channel/bank/page counts;
    failing loudly here converts a subtle striping bug into an immediate
    configuration error.
    """
    if not is_power_of_two(value):
        raise ConfigError(f"expected a power of two, got {value!r}")
    return value.bit_length() - 1
