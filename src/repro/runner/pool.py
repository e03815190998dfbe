"""Sweep-cell fan-out: serial or process-pool execution behind the cache.

Every experiment driver decomposes into *cells* — one simulation (or
oracle study) fully determined by ``(config, workload, kind, params)``.
Cells share nothing at runtime: a worker rebuilds its trace
deterministically via :func:`repro.experiments.common.trace_for`, so a
sweep can fan out across processes (or, later, machines) and still
produce byte-identical tables.

:class:`SweepRunner` is the execution front door the drivers submit
through.  It consults the on-disk :class:`~repro.runner.cache.ResultCache`
first, computes only the misses — serially for ``jobs=1``, through a
``ProcessPoolExecutor`` otherwise — stores fresh results back, and feeds
a :class:`~repro.runner.progress.ProgressTracker`.  Results are returned
in submission order regardless of completion order, which is what makes
``--jobs 1``, ``--jobs 4`` and a fully warm cache indistinguishable to
the callers.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

from ..common.config import require_positive_int
from .cache import ResultCache, code_version_token, fingerprint
from .progress import ProgressTracker

if TYPE_CHECKING:  # annotation-only; avoids a package cycle
    from ..experiments.common import ExperimentConfig

JOBS_ENV_VAR = "REPRO_JOBS"
NO_CACHE_ENV_VAR = "REPRO_NO_CACHE"

#: fingerprint schema version — bump when the payload layout changes
#: (v2: cells carry the replay-kernel choice; v3: the sanitize flag;
#: v4: the mechanism-spec fingerprint; v5: spec fingerprints carry the
#: tier descriptor, swap legality, and parameter ranges)
SCHEMA_VERSION = 5


@dataclass(frozen=True)
class SimCell:
    """One timing simulation: a mechanism replaying one workload trace.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the cell
    is hashable, picklable, and fingerprints canonically.

    ``kernel`` names the replay implementation.  The two kernels are
    proven result-identical, but the choice is still fingerprinted: a
    cached cell must record exactly how it was produced, so a kernel
    divergence bug could never be masked by stale cache hits.
    ``sanitize`` is fingerprinted for the same reason — sanitized runs
    are proven result-identical, but a sanitizer bug must never hide
    behind (or poison) cached unsanitized results.

    The payload also embeds the registered
    :class:`~repro.mechanisms.spec.MechanismSpec` fingerprint for
    ``kind``: editing a registered spec (or re-registering a name with
    a different composition) invalidates every cached result computed
    under the old definition.
    """

    config: "ExperimentConfig"
    workload: str
    kind: str
    future_tech: bool = False
    params: Tuple[Tuple[str, Any], ...] = ()
    kernel: str = "fast"
    sanitize: bool = False

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.kind}"

    def payload(self) -> Dict[str, Any]:
        """The fingerprint inputs (everything the result depends on)."""
        from ..mechanisms.registry import get_mechanism  # lazy: avoids a cycle

        config = self.config
        return {
            "cell": "simulation",
            "config": {
                "scale": config.scale,
                "length": config.length,
                "seed": config.seed,
            },
            "geometry": asdict(config.geometry),
            "workload": self.workload,
            "kind": self.kind,
            "spec": get_mechanism(self.kind).fingerprint(),
            "future_tech": self.future_tech,
            "params": dict(self.params),
            "kernel": self.kernel,
            "sanitize": self.sanitize,
        }

    def compute(self):
        # Local imports: experiments -> runner -> experiments otherwise.
        from ..experiments.common import trace_for
        from ..system.simulator import run

        trace = trace_for(self.config, self.workload)
        return run(
            trace,
            self.kind,
            self.config.geometry,
            future_tech=self.future_tech,
            kernel=self.kernel,
            sanitize=self.sanitize,
            **dict(self.params),
        )


@dataclass(frozen=True)
class OracleCell:
    """One Section 3 offline oracle study over one workload trace."""

    config: "ExperimentConfig"
    workload: str
    interval_requests: int = 5500
    mea_counters: int = 128

    @property
    def label(self) -> str:
        return f"{self.workload}/oracle"

    def payload(self) -> Dict[str, Any]:
        config = self.config
        return {
            "cell": "oracle",
            "config": {
                "scale": config.scale,
                "length": config.length,
                "seed": config.seed,
            },
            "geometry": asdict(config.geometry),
            "workload": self.workload,
            "interval_requests": self.interval_requests,
            "mea_counters": self.mea_counters,
        }

    def compute(self):
        from ..experiments.common import trace_for
        from ..tracking.oracle import run_oracle_study

        trace = trace_for(self.config, self.workload)
        return run_oracle_study(
            trace.page_sequence(),
            workload=self.workload,
            interval_requests=self.interval_requests,
            mea_counters=self.mea_counters,
        )


Cell = Union[SimCell, OracleCell]


def sim_cell(
    config: "ExperimentConfig",
    workload: str,
    kind: str,
    future_tech: bool = False,
    **params,
) -> SimCell:
    """Build a :class:`SimCell` with canonically ordered parameters.

    The replay kernel and the sanitize flag are resolved *here*
    (explicit ``$REPRO_KERNEL`` / ``$REPRO_SANITIZE`` or the defaults)
    rather than in the worker, so every cell of a sweep records the
    same, deterministic choices regardless of worker environment.
    """
    from ..analysis.sanitize import resolve_sanitize
    from ..system.simulator import resolve_kernel

    return SimCell(
        config,
        workload,
        kind,
        future_tech,
        tuple(sorted(params.items())),
        kernel=resolve_kernel(),
        sanitize=resolve_sanitize(),
    )


def cell_key(cell: Cell) -> str:
    """The cache key: fingerprint of the cell inputs + code version."""
    return fingerprint(
        {
            "schema": SCHEMA_VERSION,
            "code": code_version_token(),
            **cell.payload(),
        }
    )


def _compute_cell(cell: Cell):
    """Worker entry point: compute one cell, report wall-clock seconds."""
    start = time.perf_counter()
    result = cell.compute()
    return result, time.perf_counter() - start


def _env_jobs() -> int:
    """``REPRO_JOBS`` if set, else one worker per CPU."""
    from ..experiments.common import _env_int

    jobs = _env_int(JOBS_ENV_VAR, os.cpu_count() or 1)
    require_positive_int(JOBS_ENV_VAR, jobs)
    return jobs


class SweepRunner:
    """Cache-backed executor for sweep cells.

    ``jobs=None`` resolves ``REPRO_JOBS`` (default: CPU count); a
    worker count below one raises :class:`ConfigError`;
    ``cache=None`` disables the on-disk cache entirely.  One runner —
    and its tracker — may serve many :meth:`map` calls (``repro sweep``
    funnels every artefact through one runner to report a single
    aggregate hit rate).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        tracker: Optional[ProgressTracker] = None,
    ) -> None:
        if jobs is None:
            jobs = _env_jobs()
        else:
            require_positive_int("jobs", jobs)
        self.jobs = jobs
        self.cache = cache
        self.tracker = tracker if tracker is not None else ProgressTracker()

    @classmethod
    def from_env(
        cls, tracker: Optional[ProgressTracker] = None
    ) -> "SweepRunner":
        """Runner configured from ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
        ``REPRO_NO_CACHE`` (cache on unless ``REPRO_NO_CACHE`` is set)."""
        cache = None if os.environ.get(NO_CACHE_ENV_VAR) else ResultCache()
        return cls(cache=cache, tracker=tracker)

    # -- execution ---------------------------------------------------------

    def map(self, cells: Iterable[Cell]) -> List[Any]:
        """Run every cell; results come back in submission order."""
        cells = list(cells)
        tracker = self.tracker
        tracker.begin(len(cells))
        results: List[Any] = [None] * len(cells)

        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(cells)
        for index, cell in enumerate(cells):
            if self.cache is not None:
                keys[index] = cell_key(cell)
                hit = self.cache.load(keys[index])
                if hit is not None:
                    results[index] = hit
                    tracker.cell_done(cell.label, hit=True, seconds=0.0)
                    continue
            pending.append(index)

        if self.jobs > 1 and len(pending) > 1:
            self._run_pool(cells, pending, keys, results)
        else:
            for index in pending:
                result, seconds = _compute_cell(cells[index])
                self._finish_cell(cells[index], keys[index], result, seconds)
                results[index] = result

        tracker.finish()
        return results

    def _run_pool(self, cells, pending, keys, results) -> None:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_compute_cell, cells[index]): index
                for index in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    result, seconds = future.result()
                    self._finish_cell(cells[index], keys[index], result, seconds)
                    results[index] = result

    def _finish_cell(self, cell: Cell, key: Optional[str], result, seconds) -> None:
        if self.cache is not None and key is not None:
            self.cache.store(key, result)
        self.tracker.cell_done(cell.label, hit=False, seconds=seconds)


# -- default runner ---------------------------------------------------------
#
# Library callers (unit tests, notebooks) get a serial, cache-free
# runner so plain `run_comparison(config)` behaves exactly like the
# pre-runner loop: no worker processes, no disk writes.  The CLI and
# the benchmark harness install a configured runner for their scope.

_default_runner: Optional[SweepRunner] = None


def get_default_runner() -> SweepRunner:
    """The runner drivers use when none is passed explicitly."""
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner(jobs=1, cache=None)
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> Optional[SweepRunner]:
    """Install ``runner`` as the ambient default; returns the previous one."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous
