"""Synthetic access-pattern primitives.

These patterns replace the paper's Sniper-captured SPEC2006 traces.  A
pattern is a *spec* of its shape knobs; :meth:`AccessPattern.stream` is
the one implementation of its sequence, an endless generator of
``(virtual_page, line, is_write)`` accesses inside a private *virtual*
page namespace.  The interleaver (:mod:`repro.trace.interleave`) pulls
one stream per core, maps virtual pages to flat physical addresses and
assigns timestamps.

The primitives expose exactly the behavioural axes the paper's results
hinge on:

* **footprint size** vs. fast-memory capacity (libquantum fits, bwaves
  does not),
* **skew** — how concentrated accesses are on a hot subset,
* **temporal drift** — whether the hot set moves between intervals
  (drift favours MEA's recency bias; stability favours Full Counters),
* **streaming** — monotone sweeps where the *recently touched* pages,
  not the *most counted* ones, predict the next interval.

All randomness flows through the :class:`DeterministicRng` handed to
``stream``, and every draw is :class:`random.Random`'s: Zipf ranks are
``bisect_left`` over :meth:`DeterministicRng.zipf_cdf`, and each
``randrange(n)`` is written out as CPython's ``getrandbits(n.bit_length())``
rejection loop, pinned against ``Random.randrange`` by
``tests/test_trace_golden.py``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from itertools import count, islice
from typing import Iterator, List, Sequence, Tuple

from ..common.config import (
    require_fraction,
    require_positive_int,
)
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng
from .record import LINES_PER_PAGE

Access = Tuple[int, int, bool]  # (virtual_page, line_within_page, is_write)

# ``randrange(LINES_PER_PAGE)`` draws this many bits per attempt.
_LINE_BITS = LINES_PER_PAGE.bit_length()


class AccessPattern(ABC):
    """The spec of a stream of virtual-page accesses.

    Subclasses implement :meth:`stream`; ``footprint_pages`` bounds
    every virtual page index the pattern may emit.  A pattern holds no
    cursor, so one spec can drive any number of independent streams.
    """

    def __init__(self, footprint_pages: int, write_fraction: float = 0.3) -> None:
        require_positive_int("footprint_pages", footprint_pages)
        require_fraction("write_fraction", write_fraction)
        self.footprint_pages = footprint_pages
        self.write_fraction = write_fraction

    @abstractmethod
    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        """Yield the pattern's endless ``(page, line, is_write)`` sequence,
        drawing from ``rng``."""


class StreamPattern(AccessPattern):
    """Sequential sweep: line after line, page after page, wrapping.

    Models streaming benchmarks (bwaves, libquantum, lbm).  With a
    footprint much larger than an interval's reach, the pages counted
    hottest in one interval are *done with* by the next — the regime
    where Full Counters predict nothing and MEA's recency bias wins.

    ``lines_per_visit`` controls how many of a page's 32 lines are
    touched before moving on (constant work per page, the lbm trait).

    ``revisit_fraction`` / ``revisit_lag_pages`` model trailing re-use:
    with the given probability an access goes to a page drawn uniformly
    from the ``revisit_lag_pages`` pages behind the front instead of
    advancing it.  Stencil codes like lbm keep touching a page for a
    while after the front first reaches it, so a page's total work
    spreads over roughly ``lag/front_speed`` worth of time — the
    structure behind the paper's lbm observation that FC ranks pages
    the program is *done with* while MEA retains in-progress pages
    whose remaining accesses land in the next interval.
    """

    def __init__(
        self,
        footprint_pages: int,
        write_fraction: float = 0.3,
        lines_per_visit: int = LINES_PER_PAGE,
        stride_pages: int = 1,
        revisit_fraction: float = 0.0,
        revisit_lag_pages: int = 0,
    ) -> None:
        super().__init__(footprint_pages, write_fraction)
        require_positive_int("lines_per_visit", lines_per_visit)
        require_positive_int("stride_pages", stride_pages)
        require_fraction("revisit_fraction", revisit_fraction)
        if lines_per_visit > LINES_PER_PAGE:
            raise ConfigError(
                f"lines_per_visit must be <= {LINES_PER_PAGE}, got {lines_per_visit}"
            )
        if revisit_fraction > 0 and revisit_lag_pages <= 0:
            raise ConfigError("revisit_lag_pages must be positive when revisiting")
        if revisit_lag_pages < 0:
            raise ConfigError("revisit_lag_pages must be non-negative")
        self.lines_per_visit = lines_per_visit
        self.stride_pages = stride_pages
        self.revisit_fraction = revisit_fraction
        self.revisit_lag_pages = revisit_lag_pages

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        random, getrandbits = rng.random, rng.getrandbits
        footprint, write_fraction = self.footprint_pages, self.write_fraction
        per_visit, stride = self.lines_per_visit, self.stride_pages
        revisit, lag_pages = self.revisit_fraction, self.revisit_lag_pages
        lag_bits = lag_pages.bit_length()
        page = line = 0
        while True:
            if revisit and random() < revisit:
                # lag is randint(1, lag_pages) - 1.
                while (lag := getrandbits(lag_bits)) >= lag_pages:
                    pass
                while (revisit_line := getrandbits(_LINE_BITS)) >= LINES_PER_PAGE:
                    pass
                yield ((page - 1 - lag) % footprint, revisit_line, random() < write_fraction)
                continue
            yield (page, line, random() < write_fraction)
            line += 1
            if line >= per_visit:
                line = 0
                page = (page + stride) % footprint


class UniformPattern(AccessPattern):
    """Uniform random page, random line: pointer-chasing with no reuse
    locality (the mcf/gems trait)."""

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        random, getrandbits = rng.random, rng.getrandbits
        footprint, write_fraction = self.footprint_pages, self.write_fraction
        page_bits = footprint.bit_length()
        while True:
            while (page := getrandbits(page_bits)) >= footprint:
                pass
            while (line := getrandbits(_LINE_BITS)) >= LINES_PER_PAGE:
                pass
            yield (page, line, random() < write_fraction)


class ZipfPattern(AccessPattern):
    """Zipf-skewed page popularity with a stable ranking.

    A *stable* skew is the Full-Counters-friendly regime (the cactus
    trait): the same pages top the ranking interval after interval, so
    accurate counting beats recency.  ``shuffle`` decorrelates the
    popularity ranking from the virtual address order.

    ``drift_period``/``drift_step`` rotate which page holds which rank
    (rank *r* maps to permutation slot ``(r + base)``, with ``base``
    advancing ``drift_step`` every ``drift_period`` accesses) — gradual
    re-ranking without changing the footprint, the regime where MEA's
    recency bias beats exact over-the-whole-interval counting.
    """

    def __init__(
        self,
        footprint_pages: int,
        alpha: float = 1.1,
        write_fraction: float = 0.3,
        shuffle: bool = True,
        drift_period: int = 0,
        drift_step: int = 0,
    ) -> None:
        super().__init__(footprint_pages, write_fraction)
        if alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {alpha!r}")
        if drift_period < 0 or drift_step < 0:
            raise ConfigError("drift_period and drift_step must be non-negative")
        self.alpha = alpha
        self.drift_period = drift_period
        self.drift_step = drift_step
        self.shuffle = shuffle

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        random, getrandbits = rng.random, rng.getrandbits
        footprint, write_fraction = self.footprint_pages, self.write_fraction
        period, step = self.drift_period, self.drift_step
        pages = list(range(footprint))
        if self.shuffle:
            rng.child("zipf-perm").shuffle(pages)
        cdf, last = rng.zipf_cdf(footprint, self.alpha), footprint - 1
        base = 0
        for drawn in count(1):
            if period and drawn % period == 0:
                base = (base + step) % footprint
            rank = bisect_left(cdf, random(), 0, last)
            while (line := getrandbits(_LINE_BITS)) >= LINES_PER_PAGE:
                pass
            yield (pages[(rank + base) % footprint], line, random() < write_fraction)


class HotColdPattern(AccessPattern):
    """A hot subset absorbs ``hot_fraction`` of accesses; the rest go
    uniformly to the cold remainder.

    Accesses within the hot window are Zipf-skewed with exponent
    ``hot_alpha`` (0 means uniform): the window's leading pages are the
    hottest, so the interval's true top-10 is a strong, learnable
    signal rather than Poisson noise over near-equals.

    Two kinds of temporal churn, deliberately separable:

    * ``drift_period``/``drift_step`` slide the hot *window* itself —
      set churn.  Every window move forces a migration mechanism to
      bring new pages into fast memory, so this knob directly controls
      steady-state migration traffic.
    * ``rotate_period``/``rotate_step`` rotate which window page holds
      which Zipf *rank* — rank churn with zero set churn.  The interval
      top-10 changes constantly (the regime where MEA's recency bias
      out-predicts whole-interval counting, xalanc/omnetpp) while the
      hot set, once migrated, stays resident.
    """

    def __init__(
        self,
        footprint_pages: int,
        hot_pages: int,
        hot_fraction: float = 0.9,
        write_fraction: float = 0.3,
        hot_alpha: float = 1.1,
        drift_period: int = 0,
        drift_step: int = 0,
        rotate_period: int = 0,
        rotate_step: int = 0,
    ) -> None:
        super().__init__(footprint_pages, write_fraction)
        require_positive_int("hot_pages", hot_pages)
        require_fraction("hot_fraction", hot_fraction)
        if hot_pages > footprint_pages:
            raise ConfigError(
                f"hot_pages ({hot_pages}) exceeds footprint ({footprint_pages})"
            )
        if drift_period < 0 or drift_step < 0:
            raise ConfigError("drift_period and drift_step must be non-negative")
        if rotate_period < 0 or rotate_step < 0:
            raise ConfigError("rotate_period and rotate_step must be non-negative")
        if hot_alpha < 0:
            raise ConfigError("hot_alpha must be non-negative")
        self.hot_pages = hot_pages
        self.hot_fraction = hot_fraction
        self.hot_alpha = hot_alpha
        self.drift_period = drift_period
        self.drift_step = drift_step
        self.rotate_period = rotate_period
        self.rotate_step = rotate_step

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        random, getrandbits = rng.random, rng.getrandbits
        footprint, write_fraction = self.footprint_pages, self.write_fraction
        hot, hot_fraction = self.hot_pages, self.hot_fraction
        drift_period, drift_step = self.drift_period, self.drift_step
        rotate_period, rotate_step = self.rotate_period, self.rotate_step
        skewed = self.hot_alpha > 0 and hot > 1
        cdf = rng.zipf_cdf(hot, self.hot_alpha) if skewed else []
        cold = footprint - hot
        hot_bits, cold_bits = hot.bit_length(), cold.bit_length()
        hot_base = rotation = 0
        for drawn in count(1):
            if drift_period and drawn % drift_period == 0:
                hot_base = (hot_base + drift_step) % footprint
            if rotate_period and drawn % rotate_period == 0:
                rotation = (rotation + rotate_step) % hot
            if random() < hot_fraction:
                if skewed:
                    offset = (bisect_left(cdf, random(), 0, hot - 1) + rotation) % hot
                else:
                    while (offset := getrandbits(hot_bits)) >= hot:
                        pass
                page = (hot_base + offset) % footprint
            elif cold:
                while (offset := getrandbits(cold_bits)) >= cold:
                    pass
                page = (hot_base + hot + offset) % footprint
            else:  # the hot window spans the whole footprint
                page = rng.randrange(footprint)
            while (line := getrandbits(_LINE_BITS)) >= LINES_PER_PAGE:
                pass
            yield (page, line, random() < write_fraction)


class WavefrontPattern(AccessPattern):
    """A slowly advancing work zone with per-page intensity that tapers.

    Models grid codes (lbm) where a page receives most of its work just
    after the wavefront reaches it, tapering off as the front moves on:
    accesses target the ``zone_pages`` behind the front with density
    increasing linearly toward the *leading* (freshly reached) edge,
    and the front advances one page every ``advance_period`` accesses.

    The resulting tracker dynamics are the paper's lbm observation:
    Full Counters' top pages of an interval are the ones that entered
    early and accumulated peak-plus-taper — already fading by the next
    interval (near-zero future hits) — while MEA's recency bias holds
    the freshly entered pages, which collect their peak-plus-taper in
    the *next* interval and top its ranking.
    """

    def __init__(
        self,
        footprint_pages: int,
        write_fraction: float = 0.4,
        zone_pages: int = 30,
        advance_period: int = 40,
    ) -> None:
        super().__init__(footprint_pages, write_fraction)
        require_positive_int("zone_pages", zone_pages)
        require_positive_int("advance_period", advance_period)
        if zone_pages > footprint_pages:
            raise ConfigError(
                f"zone_pages ({zone_pages}) exceeds footprint ({footprint_pages})"
            )
        self.zone_pages = zone_pages
        self.advance_period = advance_period

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        random, getrandbits, sqrt = rng.random, rng.getrandbits, math.sqrt
        footprint, write_fraction = self.footprint_pages, self.write_fraction
        zone, period = self.zone_pages, self.advance_period
        for drawn in count(1):
            # The zone is the ``zone`` pages behind the front, which sits
            # at ``zone + drawn // period``.  sqrt draw => density rises
            # linearly toward the leading edge, so freshly reached pages
            # are hottest and work tapers off as the front departs.
            depth = int(zone * sqrt(random()))
            if depth >= zone:
                depth = zone - 1
            while (line := getrandbits(_LINE_BITS)) >= LINES_PER_PAGE:
                pass
            yield ((drawn // period + depth) % footprint, line, random() < write_fraction)


class PhasedPattern(AccessPattern):
    """Cycle through child patterns, switching every ``phase_length``
    accesses (the gcc/astar multi-phase trait).

    Children share one virtual namespace: each child is given a disjoint
    base offset so distinct phases touch distinct page regions, which is
    what makes phase changes visible to a migration mechanism.
    """

    def __init__(self, phases: Sequence[AccessPattern], phase_length: int) -> None:
        if not phases:
            raise ConfigError("PhasedPattern requires at least one phase")
        require_positive_int("phase_length", phase_length)
        self._bases: List[int] = []
        total = 0
        for pattern in phases:
            self._bases.append(total)
            total += pattern.footprint_pages
        write_fraction = sum(p.write_fraction for p in phases) / len(phases)
        super().__init__(total, write_fraction)
        self.phases = list(phases)
        self.phase_length = phase_length

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        streams = [phase.stream(rng) for phase in self.phases]
        while True:
            for stream, base in zip(streams, self._bases):
                for page, line, is_write in islice(stream, self.phase_length):
                    yield (page + base, line, is_write)


class CompositePattern(AccessPattern):
    """Probabilistic blend of child patterns over disjoint page regions.

    Each access first picks a child with the given weights, then draws
    from it.  Useful for benchmarks that mix a streaming component with
    a resident hot structure (milc, soplex, zeusmp).
    """

    def __init__(self, parts: Sequence[AccessPattern], weights: Sequence[float]) -> None:
        if not parts or len(parts) != len(weights):
            raise ConfigError("CompositePattern needs matching parts and weights")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigError("weights must be non-negative and sum to > 0")
        self._bases: List[int] = []
        total = 0
        for pattern in parts:
            self._bases.append(total)
            total += pattern.footprint_pages
        write_fraction = sum(
            p.write_fraction * w for p, w in zip(parts, weights)
        ) / sum(weights)
        super().__init__(total, write_fraction)
        self.parts = list(parts)
        norm = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / norm
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def stream(self, rng: DeterministicRng) -> Iterator[Access]:
        random = rng.random
        draws = [part.stream(rng).__next__ for part in self.parts]
        cdf, bases, last = self._cdf, self._bases, len(self._cdf) - 1
        while True:
            # The first part whose cumulative weight reaches the draw;
            # the final entry is pinned to 1.0, so it is never searched.
            idx = bisect_left(cdf, random(), 0, last)
            page, line, is_write = draws[idx]()
            yield (page + bases[idx], line, is_write)
