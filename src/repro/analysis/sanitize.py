"""Runtime simulation sanitizer (``simulate(sanitize=True)``).

A read-only invariant checker layered on the reference replay loop.
At interval boundaries (and every :data:`CHECK_PERIOD` records as a
fallback for event-triggered managers), it validates the architectural
invariants the paper's design rests on:

* **remap bijectivity and intra-pod closure** (Section 5) — forward and
  inverted tables compose to identity, no identity entries are stored,
  every migrated page stays inside its owning pod / THM segment /
  CAMEO congruence group, and every cross-tier mapping is one of the
  manager's declared legal ``swap_tiers`` pairs;
* **MEA semantics** (Section 3) — at most K counters live, every
  counter within its saturating range, and evictions only ever produced
  by Karp decrement rounds;
* **competing-counter / full-counter semantics** (Section 2 baselines)
  — THM counters stay inside their saturating range and strictly below
  the trigger threshold between records (a crossing must migrate and
  reset), and HMA's per-page counters are positive, saturated at their
  width, and attached to legal pages;
* **timeline sanity** — per-channel bus and completion timestamps and
  per-bank ``busy_until`` never move backwards, and every open row is a
  legal row index (or -1, precharged);
* **stats conservation** — per-controller ``served`` equals both the
  read/write split and the per-kind split, latency sums are conserved,
  demand-request count equals the trace length, and the reported AMMAT
  matches its numerator/denominator definition.

Every check is read-only, so a sanitized run produces a
field-for-field identical :class:`~repro.system.stats.SimulationResult`
(proven by ``tests/test_sanitize.py``).  Violations raise a structured
:class:`SanitizerError` naming the invariant, pod, and cycle.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Tuple

from ..common.errors import SimulationError
from ..common.units import to_ns

#: Ambient enable, mirroring the other ``REPRO_*`` switches: unset,
#: empty, or ``"0"`` means off; anything else means on.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Fallback check cadence (in records) for managers without interval
#: boundaries (THM, CAMEO, the static baselines).
CHECK_PERIOD = 1024


def resolve_sanitize(sanitize: Optional[bool] = None) -> bool:
    """Resolve the sanitize flag: explicit > ``$REPRO_SANITIZE`` > off."""
    if sanitize is None:
        return os.environ.get(SANITIZE_ENV_VAR, "") not in ("", "0")
    return bool(sanitize)


class SanitizerError(SimulationError):
    """A simulation invariant was violated (names invariant, pod, cycle)."""

    def __init__(
        self,
        invariant: str,
        detail: str,
        pod: Optional[int] = None,
        cycle_ps: Optional[int] = None,
    ) -> None:
        self.invariant = invariant
        self.pod = pod
        self.cycle_ps = cycle_ps
        where = []
        if pod is not None:
            where.append(f"pod {pod}")
        if cycle_ps is not None:
            where.append(f"cycle {cycle_ps} ps")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"invariant '{invariant}' violated{suffix}: {detail}")


class SimulationSanitizer:
    """Read-only invariant checker for one manager + memory system.

    Construct it over a manager, then call :meth:`observe` after every
    record (it runs :meth:`check` at interval boundaries and every
    :data:`CHECK_PERIOD` records) and :meth:`check_final` after result
    collection.  All state it keeps is *shadow* state (previous
    timestamp snapshots and the sweep countdown); it never mutates the
    simulation.
    """

    def __init__(self, manager) -> None:
        self.manager = manager
        self.geometry = manager.geometry
        #: [(label, controller, mapper)] over every channel in the system.
        self._channels = self._enumerate_channels(manager.memory)
        #: label -> (bus_free_ps, last_completion_ps, [bank busy_until_ps])
        self._shadow: Dict[str, Tuple[int, int, List[int]]] = {}
        #: :meth:`observe` state: the boundary last seen and the records
        #: left until the periodic sweep.
        self._boundary = getattr(manager, "_next_boundary_ps", None)
        self._countdown = CHECK_PERIOD

    @staticmethod
    def _enumerate_channels(memory) -> List[Tuple[str, object, object]]:
        channels = []
        devices = memory.tiers
        # Shadow labels must be unique; two tiers of the same technology
        # would otherwise share one monotonicity snapshot.
        names = [device.name for device in devices]
        for tier_index, device in enumerate(devices):
            prefix = device.name
            if names.count(device.name) > 1:
                prefix = f"tier{tier_index}:{device.name}"
            for idx, ctrl in enumerate(device.controllers):
                channels.append((f"{prefix}/ch{idx}", ctrl, device.mapper))
        return channels

    # -- failure helper -----------------------------------------------------

    def _fail(
        self,
        invariant: str,
        detail: str,
        pod: Optional[int] = None,
        cycle_ps: Optional[int] = None,
    ) -> None:
        raise SanitizerError(invariant, detail, pod=pod, cycle_ps=cycle_ps)

    # -- top-level entry points ---------------------------------------------

    def check(self, cycle_ps: int) -> None:
        """Run every interval-boundary invariant at simulated ``cycle_ps``."""
        self._check_remap(cycle_ps)
        self._check_tracking(cycle_ps)
        self._check_blocking(cycle_ps)
        self._check_timeline(cycle_ps)
        self._check_controller_stats(cycle_ps)

    def observe(self, arrival_ps: int) -> None:
        """Per-record hook: sweep when the manager's interval boundary
        moved (``_next_boundary_ps``), else every :data:`CHECK_PERIOD`
        records since the last sweep."""
        self._countdown -= 1
        boundary = getattr(self.manager, "_next_boundary_ps", None)
        if boundary != self._boundary or self._countdown == 0:
            self._boundary = boundary
            self._countdown = CHECK_PERIOD
            self.check(arrival_ps)

    def check_final(self, trace, result, end_ps: int) -> None:
        """End-of-run conservation checks against the collected result."""
        self.check(end_ps)
        merged = self.manager.memory.merged_stats()
        demand = len(trace)
        if merged.demand_count != demand:
            self._fail(
                "demand-conservation",
                f"trace has {demand} demand requests but the controllers "
                f"served {merged.demand_count}: requests were lost or "
                "duplicated across a remap",
                cycle_ps=end_ps,
            )
        per_tier = [
            tier.merged_stats().demand_count for tier in self.manager.memory.tiers
        ]
        if sum(per_tier) != merged.demand_count:
            self._fail(
                "demand-conservation",
                f"per-tier demand counts {per_tier} sum to "
                f"{sum(per_tier)} but the system merged "
                f"{merged.demand_count}: a tier was skipped or "
                "double-counted in the merge",
                cycle_ps=end_ps,
            )
        expected_ammat = to_ns(merged.demand_latency_ps) / demand if demand else 0.0
        if not math.isclose(result.ammat_ns, expected_ammat, rel_tol=1e-12, abs_tol=1e-9):
            self._fail(
                "ammat-definition",
                f"reported AMMAT {result.ammat_ns} ns does not equal the "
                f"demand-latency sum over the trace length ({expected_ammat} ns)",
                cycle_ps=end_ps,
            )
        if result.served != merged.served:
            self._fail(
                "served-conservation",
                f"result.served={result.served} but controllers served "
                f"{merged.served}",
                cycle_ps=end_ps,
            )

    # -- remap bijectivity and closure ---------------------------------------

    def _check_remap(self, cycle_ps: int) -> None:
        manager = self.manager
        pods = getattr(manager, "pods", None)
        if pods is not None:  # MemPod: per-pod RemapTable + pod closure
            for pod in pods:
                self._check_pod_remap(pod, cycle_ps)
            return
        location = getattr(manager, "_location", None)
        resident = getattr(manager, "_resident", None)
        if location is None or resident is None:
            return  # static baselines keep no remap state
        self._check_dict_remap(location, resident, cycle_ps)

    def _check_pod_remap(self, pod, cycle_ps: int) -> None:
        forward = pod.remap._forward
        resident = pod.remap._resident
        if len(forward) != len(resident):
            self._fail(
                "remap-bijectivity",
                f"forward table has {len(forward)} entries but inverted "
                f"table has {len(resident)}",
                pod=pod.pod_id, cycle_ps=cycle_ps,
            )
        page_pod = self.geometry.page_pod
        for page, frame in forward.items():
            if resident.get(frame) != page:
                self._fail(
                    "remap-bijectivity",
                    f"page {page} maps to frame {frame}, but frame {frame} "
                    f"holds {resident.get(frame)}",
                    pod=pod.pod_id, cycle_ps=cycle_ps,
                )
            if page == frame:
                self._fail(
                    "remap-bijectivity",
                    f"identity entry {page} stored explicitly",
                    pod=pod.pod_id, cycle_ps=cycle_ps,
                )
            if page_pod(page) != pod.pod_id or page_pod(frame) != pod.pod_id:
                self._fail(
                    "pod-closure",
                    f"page {page} (pod {page_pod(page)}) mapped to frame "
                    f"{frame} (pod {page_pod(frame)}): migration crossed a "
                    "pod boundary (paper Section 5 forbids inter-pod swaps)",
                    pod=pod.pod_id, cycle_ps=cycle_ps,
                )
            self._check_tier_pair(page, frame, cycle_ps, pod=pod.pod_id)

    def _check_dict_remap(self, location: Dict[int, int], resident: Dict[int, int], cycle_ps: int) -> None:
        if len(location) != len(resident):
            self._fail(
                "remap-bijectivity",
                f"location table has {len(location)} entries but resident "
                f"table has {len(resident)}",
                cycle_ps=cycle_ps,
            )
        closure = self._closure_fn()
        page_of = self._remap_page_fn()
        for page, frame in location.items():
            if resident.get(frame) != page:
                self._fail(
                    "remap-bijectivity",
                    f"page {page} maps to frame {frame}, but frame {frame} "
                    f"holds {resident.get(frame)}",
                    cycle_ps=cycle_ps,
                )
            if page == frame:
                self._fail(
                    "remap-bijectivity",
                    f"identity entry {page} stored explicitly",
                    cycle_ps=cycle_ps,
                )
            if closure is not None:
                name, group_of = closure
                if group_of(page) != group_of(frame):
                    self._fail(
                        f"{name}-closure",
                        f"page {page} ({name} {group_of(page)}) mapped to "
                        f"frame {frame} ({name} {group_of(frame)}): migration "
                        f"left its {name}",
                        cycle_ps=cycle_ps,
                    )
            self._check_tier_pair(page_of(page), page_of(frame), cycle_ps)

    def _check_tier_pair(
        self, page_a: int, page_b: int, cycle_ps: int, pod: Optional[int] = None
    ) -> None:
        """Cross-tier mappings must be declared legal ``swap_tiers`` pairs.

        Same-tier remaps are always legal (pod-internal and segment
        swaps); a cross-tier entry is checked against the manager's
        resolved ``swap_tiers`` — the spec-level migration legality the
        N-tier grammar declares.
        """
        page_tier = self.geometry.page_tier
        tier_a = page_tier(page_a)
        tier_b = page_tier(page_b)
        if tier_a == tier_b:
            return
        pair = (tier_a, tier_b) if tier_a < tier_b else (tier_b, tier_a)
        allowed = getattr(self.manager, "swap_tiers", ((0, 1),))
        if pair not in allowed:
            self._fail(
                "tier-closure",
                f"page {page_a} (tier {tier_a}) mapped to frame {page_b} "
                f"(tier {tier_b}), but {pair} is not a declared legal "
                f"swap pair (legal cross-tier pairs: {tuple(allowed)})",
                pod=pod, cycle_ps=cycle_ps,
            )

    def _remap_page_fn(self):
        """Remap-key -> page converter (CAMEO keys its tables by line)."""
        if hasattr(self.manager, "group_of"):  # CAMEO: line-granularity
            lines_per_page = self.geometry.lines_per_page
            return lambda line: line // lines_per_page
        return lambda page: page

    def _closure_fn(self):
        """(label, group function) a dict-remap manager must respect."""
        manager = self.manager
        if hasattr(manager, "segment_of"):  # THM
            return ("segment", manager.segment_of)
        if hasattr(manager, "group_of"):  # CAMEO
            return ("group", manager.group_of)
        return None  # HMA: full flexibility, no closure constraint

    # -- tracking-state semantics ---------------------------------------------

    def _check_tracking(self, cycle_ps: int) -> None:
        self._check_competing_counters(cycle_ps)
        self._check_full_counters(cycle_ps)
        pods = getattr(self.manager, "pods", None)
        if pods is None:
            return
        for pod in pods:
            mea = pod.mea
            table = mea._table
            if len(table) > mea.capacity:
                self._fail(
                    "mea-capacity",
                    f"{len(table)} counters live but the MEA unit has only "
                    f"K={mea.capacity}",
                    pod=pod.pod_id, cycle_ps=cycle_ps,
                )
            for page, count in table.items():
                if not 1 <= count <= mea._max_count:
                    self._fail(
                        "mea-counter-range",
                        f"page {page} has counter {count}, outside the "
                        f"{mea.counter_bits}-bit saturating range "
                        f"[1, {mea._max_count}] (a zero counter must be "
                        "evicted by its decrement round)",
                        pod=pod.pod_id, cycle_ps=cycle_ps,
                    )
            if mea.evictions and not mea.decrement_rounds:
                self._fail(
                    "mea-decrement-semantics",
                    f"{mea.evictions} evictions recorded without any "
                    "decrement round: Karp eviction only happens when a "
                    "full table decrements",
                    pod=pod.pod_id, cycle_ps=cycle_ps,
                )
            if mea.evictions > mea.insertions:
                self._fail(
                    "mea-decrement-semantics",
                    f"{mea.evictions} evictions exceed {mea.insertions} "
                    "insertions",
                    pod=pod.pod_id, cycle_ps=cycle_ps,
                )

    def _check_competing_counters(self, cycle_ps: int) -> None:
        """THM: every competing counter inside its saturating range and
        defended below the trigger threshold (a crossing resets to 0, so
        a counter at or above the threshold between records means the
        batched Lindley recursion missed a trigger)."""
        counters = getattr(self.manager, "counters", None)
        counts = getattr(counters, "_counts", None)
        if counts is None:
            return
        max_count = counters._max_count
        bound = min(counters.threshold, max_count + 1)
        for segment, count in enumerate(counts):
            if not 0 <= count <= max_count:
                self._fail(
                    "competing-counter-range",
                    f"segment {segment} counter {count} outside the "
                    f"{counters.counter_bits}-bit saturating range "
                    f"[0, {max_count}]",
                    cycle_ps=cycle_ps,
                )
            if count >= bound:
                self._fail(
                    "competing-counter-trigger",
                    f"segment {segment} counter {count} at or above the "
                    f"trigger threshold {counters.threshold} between "
                    "records: a crossing must migrate and reset to 0",
                    cycle_ps=cycle_ps,
                )

    def _check_full_counters(self, cycle_ps: int) -> None:
        """HMA: every per-page counter positive, saturated at its width,
        and attached to a legal page."""
        tracker = getattr(self.manager, "tracker", None)
        counts = getattr(tracker, "_counts", None)
        if counts is None:
            return
        max_count = tracker._max_count
        total_pages = tracker.total_pages
        for page, count in counts.items():
            if not 1 <= count <= max_count:
                self._fail(
                    "full-counter-range",
                    f"page {page} counter {count} outside the "
                    f"{tracker.counter_bits}-bit saturating range "
                    f"[1, {max_count}] (zero entries must not be stored)",
                    cycle_ps=cycle_ps,
                )
            if not 0 <= page < total_pages:
                self._fail(
                    "full-counter-range",
                    f"counter stored for page {page}, outside the "
                    f"{total_pages}-page address space",
                    cycle_ps=cycle_ps,
                )

    # -- blocking-table sanity -------------------------------------------------

    def _check_blocking(self, cycle_ps: int) -> None:
        blocked = getattr(self.manager, "_blocked", None)
        expiry = getattr(self.manager, "_blocked_expiry", None)
        if not blocked or expiry is None:
            return
        # Lazy deletion means the heap may hold stale extras, but every
        # live block must be covered by at least one heap entry.
        if len(blocked) > len(expiry):
            self._fail(
                "block-expiry-coverage",
                f"{len(blocked)} blocked pages but only {len(expiry)} expiry "
                "heap entries: some blocks can never be reclaimed",
                cycle_ps=cycle_ps,
            )

    # -- timeline monotonicity and row legality ---------------------------------

    def _check_timeline(self, cycle_ps: int) -> None:
        for label, ctrl, mapper in self._channels:
            banks = ctrl.banks
            previous = self._shadow.get(label)
            if previous is not None:
                bus_prev, completion_prev, banks_prev = previous
                if ctrl.bus_free_ps < bus_prev:
                    self._fail(
                        "bus-monotonicity",
                        f"channel {label} bus_free_ps moved backwards "
                        f"({bus_prev} -> {ctrl.bus_free_ps})",
                        cycle_ps=cycle_ps,
                    )
                if ctrl.last_completion_ps < completion_prev:
                    self._fail(
                        "completion-monotonicity",
                        f"channel {label} last_completion_ps moved backwards "
                        f"({completion_prev} -> {ctrl.last_completion_ps})",
                        cycle_ps=cycle_ps,
                    )
                for idx, bank in enumerate(banks):
                    if bank.busy_until_ps < banks_prev[idx]:
                        self._fail(
                            "bank-monotonicity",
                            f"channel {label} bank {idx} busy_until_ps moved "
                            f"backwards ({banks_prev[idx]} -> {bank.busy_until_ps})",
                            cycle_ps=cycle_ps,
                        )
            rows = mapper.rows_per_bank
            for idx, bank in enumerate(banks):
                if not (bank.open_row == -1 or 0 <= bank.open_row < rows):
                    self._fail(
                        "row-legality",
                        f"channel {label} bank {idx} has open_row "
                        f"{bank.open_row}, outside [-1, {rows})",
                        cycle_ps=cycle_ps,
                    )
                if bank.activated_ps > bank.busy_until_ps and bank.open_row != -1:
                    self._fail(
                        "row-legality",
                        f"channel {label} bank {idx} activated at "
                        f"{bank.activated_ps} after its busy window "
                        f"{bank.busy_until_ps}",
                        cycle_ps=cycle_ps,
                    )
            self._shadow[label] = (
                ctrl.bus_free_ps,
                ctrl.last_completion_ps,
                [bank.busy_until_ps for bank in banks],
            )

    # -- per-controller stats conservation ---------------------------------------

    def _check_controller_stats(self, cycle_ps: int) -> None:
        for label, ctrl, _ in self._channels:
            stats = ctrl.stats
            if stats.served != stats.reads + stats.writes:
                self._fail(
                    "stats-conservation",
                    f"channel {label} served {stats.served} but "
                    f"reads+writes={stats.reads + stats.writes}",
                    cycle_ps=cycle_ps,
                )
            kind_total = stats.demand_count + stats.migration_count + stats.bookkeeping_count
            if stats.served != kind_total:
                self._fail(
                    "stats-conservation",
                    f"channel {label} served {stats.served} but per-kind "
                    f"counts sum to {kind_total}",
                    cycle_ps=cycle_ps,
                )
            latency_total = (
                stats.demand_latency_ps
                + stats.migration_latency_ps
                + stats.bookkeeping_latency_ps
            )
            if stats.total_latency_ps != latency_total:
                self._fail(
                    "stats-conservation",
                    f"channel {label} total latency {stats.total_latency_ps} "
                    f"but per-kind latencies sum to {latency_total}",
                    cycle_ps=cycle_ps,
                )
            if stats.row_hits > stats.served:
                self._fail(
                    "stats-conservation",
                    f"channel {label} row_hits {stats.row_hits} exceed "
                    f"served {stats.served}",
                    cycle_ps=cycle_ps,
                )
            # The batched-path service counters are observability only,
            # but they must still be conserved: every counted service
            # corresponds to one really-served transaction, and no
            # engine can report a negative count.
            paths = ctrl.service_paths
            if paths.closed_form_served < 0 or paths.scan_served < 0:
                self._fail(
                    "stats-conservation",
                    f"channel {label} has a negative service-path counter "
                    f"({paths})",
                    cycle_ps=cycle_ps,
                )
            if paths.batched_served > stats.served:
                self._fail(
                    "stats-conservation",
                    f"channel {label} batched-path services "
                    f"{paths.batched_served} exceed served {stats.served}",
                    cycle_ps=cycle_ps,
                )


def sanitized_simulate(trace, manager):
    """The reference replay loop with invariant checks layered on.

    Runs :func:`~repro.system.simulator.reference_simulate` itself, so
    record handling, throttling, and finishing are the reference loop's
    (``tests/test_sanitize.py`` proves results are field-for-field
    identical); :meth:`SimulationSanitizer.observe` sweeps at interval
    boundaries and every :data:`CHECK_PERIOD` records, and
    :meth:`SimulationSanitizer.check_final` after finishing.
    """
    # lazy: simulator imports us lazily too
    from ..system.simulator import reference_simulate

    sanitizer = SimulationSanitizer(manager)
    result = reference_simulate(trace, manager, observe=sanitizer.observe)
    sanitizer.check_final(trace, result, result.duration_ps)
    return result
