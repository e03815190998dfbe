"""The benchmark's three workloads, driven through the public API only.

* ``mix8-steady`` — the Table-3 mix8 trace, synthesised by the program
  and served warm from the columnar trace store, replayed on the five
  figure-8 mechanisms.  A steady hot set: the kernel loops, tracker
  updates and demand service do the work; migrations are rare.
* ``churn`` — the seeded generator of :mod:`churn`, written with the
  program's columnar writer and replayed mapped on the same five
  mechanisms.  The hot set moves every 1,500 records, so the migration
  datapath, contended controller batches and remap rebuilds do the work.
* ``sweep-cold`` — a ``SweepRunner(jobs=1)`` sweep with an empty trace
  store and an empty result cache: trace synthesis, store writes, cell
  fingerprints and cache writes do the work, then the same cells are
  mapped again and must all be cache hits.

Every function here calls into the simulator through module attributes
(``simulator.simulate``, not a name bound at import), so the wrappers
:mod:`layers` installs for the traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import repro.kernel  # noqa: F401  -- the default kernel (and numpy) is set-up cost
import repro.kernel.replay as kernel_replay
import repro.system.simulator as simulator
import repro.trace.packed as packed_module
import repro.trace.store as trace_store
import repro.tracking.competing as competing_module
import repro.tracking.full_counters as full_counters_module
import repro.tracking.mea as mea_module
from repro.experiments.common import ExperimentConfig, clear_trace_cache, trace_for
from repro.runner.cache import ResultCache, code_version_token
from repro.runner.pool import SweepRunner, sim_cell
from repro.runner.progress import ProgressTracker
from repro.trace.io import save_columnar
from repro.trace.record import Trace

from churn import churn_trace
from gate import Replay

MECHANISMS = ("tlm", "mempod", "thm", "hma", "cameo")
SCALE = 32


def mechanism_params(mechanism: str) -> Dict[str, int]:
    """Build parameters: the scaled HMA epoch for hma, defaults otherwise."""
    return ExperimentConfig().hma_params() if mechanism == "hma" else {}


@dataclass
class Cell:
    """One (trace, mechanism) replay, for the reference and exact-path legs."""

    label: str
    mechanism: str
    trace: object
    geometry: object
    params: Dict[str, int]


@dataclass
class Pass:
    """One timed pass over a workload's replays.

    ``records`` and ``seconds`` cover one replay of every cell (for a
    sweep, the cold and warm sweeps); ``replays`` holds every replay.
    ``calibrated_seconds`` is ``seconds`` on the nominal host (see
    :mod:`calibrate`); it equals ``seconds`` for an uncalibrated pass.
    """

    replays: List[Replay]
    seconds: float
    records: int
    calibrated_seconds: float = 0.0
    warm_seconds: float = 0.0
    warm_hit_rate: float = 0.0
    failures: List[str] = field(default_factory=list)


def _timer(sampler):
    """``stop()`` for a span starting now: ``(seconds, host factor)``."""
    if sampler is None:
        start = time.perf_counter()
        return lambda: (time.perf_counter() - start, 1.0)
    mark = sampler.mark()
    return lambda: sampler.close(mark)


def _replay(label, mechanism, trace, geometry, params, sampler=None) -> Replay:
    """Build the manager and replay ``trace``; the timer covers both."""
    stop = _timer(sampler)
    try:
        manager = simulator.build_manager(mechanism, geometry, **params)
        result = simulator.simulate(trace, manager)
        error = None
    except Exception as exc:  # a raising replay is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds, host_factor = stop()
    return Replay(
        label, mechanism, len(trace), seconds, result, error,
        kernel_replay.last_dispatch, host_factor,
    )


def _map(runner, cells, which, failures):
    """``runner.map(cells)``; a raising sweep is recorded, not fatal."""
    try:
        return runner.map(cells)
    except Exception as exc:
        failures.append(f"{which} sweep raised {type(exc).__name__}: {exc}")
        return [None] * len(cells)


class ReplayWorkload:
    """One mapped trace replayed on every mechanism, once per pass."""

    def __init__(self, name: str, length: int) -> None:
        self.name = name
        self.length = length

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(scale=SCALE, length=self.length, seed=seed)

    def make_inputs(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def acquire(self, work: Path, seed: int):
        """The trace, obtained the way a user of the program obtains it."""
        raise NotImplementedError

    def setup(self, work: Path, seed: int) -> dict:
        trace = self.acquire(work, seed)
        geometry = self.config(seed).geometry
        for mechanism in MECHANISMS:
            simulator.build_manager(mechanism, geometry, **mechanism_params(mechanism))
        return {"trace": trace, "geometry": geometry, "seed": seed}

    def run_pass(
        self, state: dict, region=contextlib.nullcontext, block_seconds: float = 0.0,
        sampler=None,
    ) -> Pass:
        """Replay each mechanism until ``block_seconds`` of its replays
        are timed (at least once); ``region()`` wraps the whole pass.
        An active :class:`calibrate.HostSampler` calibrates every replay.

        The pass's ``seconds`` is one replay of every mechanism: the sum
        over mechanisms of their mean replay time.
        """
        trace, geometry = state["trace"], state["geometry"]
        replays: List[Replay] = []
        seconds = calibrated_seconds = 0.0
        with region():
            for mechanism in MECHANISMS:
                block: List[Replay] = []
                while not block or sum(r.seconds for r in block) < block_seconds:
                    block.append(_replay(
                        f"{trace.name}/{mechanism}", mechanism, trace, geometry,
                        mechanism_params(mechanism), sampler,
                    ))
                replays += block
                seconds += sum(r.seconds for r in block) / len(block)
                calibrated_seconds += (
                    sum(r.calibrated_seconds for r in block) / len(block)
                )
        return Pass(replays, seconds, len(MECHANISMS) * len(trace), calibrated_seconds)

    def cells(self, state: dict) -> List[Cell]:
        trace = state["trace"]
        return [
            Cell(f"{trace.name}/{m}", m, trace, state["geometry"], mechanism_params(m))
            for m in MECHANISMS
        ]


class Mix8Steady(ReplayWorkload):
    def make_inputs(self, work: Path, seed: int) -> None:
        trace_for(self.config(seed), "mix8")  # synthesise into the store

    def acquire(self, work: Path, seed: int):
        return trace_for(self.config(seed), "mix8")  # warm: maps the stored planes


class Churn(ReplayWorkload):
    def make_inputs(self, work: Path, seed: int) -> None:
        trace = churn_trace(self.config(seed).geometry, seed, self.length)
        save_columnar(trace, work / "churn.mpt")

    def acquire(self, work: Path, seed: int):
        return trace_store.open_columnar(work / "churn.mpt", name="churn")


class SweepCold(ReplayWorkload):
    """A cold sweep, then the same cells warm.

    Four SPEC/Table-3 traces × {tlm, mempod}, plus thm, hma and cameo
    on mix3 so that every per-mechanism metric has a cell.
    """

    TRACES = ("xalanc", "mcf", "libquantum", "mix3")
    ALL_MECHANISMS_ON = "mix3"

    def cell_specs(self):
        for workload in self.TRACES:
            mechanisms = (
                MECHANISMS if workload == self.ALL_MECHANISMS_ON else ("tlm", "mempod")
            )
            for mechanism in mechanisms:
                yield workload, mechanism

    def make_inputs(self, work: Path, seed: int) -> None:
        pass  # synthesis is the work this workload measures

    def setup(self, work: Path, seed: int) -> dict:
        code_version_token()  # once per process, like the import
        config = self.config(seed)
        cells = [
            sim_cell(config, workload, mechanism, **mechanism_params(mechanism))
            for workload, mechanism in self.cell_specs()
        ]
        return {"config": config, "cells": cells, "seed": seed, "work": work, "n": 0}

    def _fresh_dirs(self, state: dict):
        state["n"] += 1
        base = state["work"] / f"sweep{state['n']}"
        shutil.rmtree(base, ignore_errors=True)
        trace_dir, cache_dir = base / "traces", base / "results"
        os.environ[trace_store.TRACE_DIR_ENV_VAR] = str(trace_dir)
        clear_trace_cache()
        return base, cache_dir

    def run_pass(
        self, state: dict, region=contextlib.nullcontext, block_seconds: float = 0.0,
        sampler=None,
    ) -> Pass:
        """One cold sweep and one warm sweep (a sweep has no blocks).

        An active :class:`calibrate.HostSampler` calibrates every cell's
        replay and the whole pass.
        """
        cells = state["cells"]
        length = state["config"].length
        base, cache_dir = self._fresh_dirs(state)
        timed: List[Replay] = []
        original_run = simulator.run

        def timed_run(trace, kind, geometry, **kwargs):
            # One timer per cell around build_manager + simulate, the span
            # the replay workloads time; sweep cells reach it through run().
            stop = _timer(sampler)
            result = error = None
            try:
                result = original_run(trace, kind, geometry, **kwargs)
                return result
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                seconds, host_factor = stop()
                timed.append(Replay(
                    f"{trace.name}/{kind}", kind, len(trace), seconds, result,
                    error, kernel_replay.last_dispatch, host_factor,
                ))

        failures: List[str] = []
        runner = SweepRunner(
            jobs=1, cache=ResultCache(cache_dir),
            tracker=ProgressTracker(stream=io.StringIO(), live=False),
        )
        simulator.run = timed_run
        try:
            with region():
                stop = _timer(sampler)
                _map(runner, cells, "cold", failures)
                warm_start = time.perf_counter()
                hits_before = runner.tracker.hits
                warm = _map(runner, cells, "warm", failures)
                end = time.perf_counter()
                seconds, host_factor = stop()
        finally:
            simulator.run = original_run
        warm_hits = runner.tracker.hits - hits_before
        replays = list(timed)
        for cell, result in zip(cells, warm):
            replays.append(Replay(
                cell.label, cell.kind, length, 0.0, result,
                None if result is not None else "no warm result", "cache-hit",
            ))
        if warm_hits != len(cells):
            failures.append(f"warm sweep hit {warm_hits} of {len(cells)} cells")
        shutil.rmtree(base, ignore_errors=True)
        return Pass(
            replays, seconds, len(cells) * length, seconds / host_factor,
            warm_seconds=end - warm_start,
            warm_hit_rate=warm_hits / len(cells),
            failures=failures,
        )

    def cells(self, state: dict) -> List[Cell]:
        """The sweep's cells over traces synthesised into a fresh store."""
        self._fresh_dirs(state)
        config = state["config"]
        return [
            Cell(f"{w}/{m}", m, trace_for(config, w), config.geometry, mechanism_params(m))
            for w, m in self.cell_specs()
        ]


WORKLOADS = {
    "mix8-steady": Mix8Steady("mix8-steady", 100_000),
    "churn": Churn("churn", 100_000),
    "sweep-cold": SweepCold("sweep-cold", 50_000),
}


#: numpy-guarded modules set to ``None`` for the pure-Python leg, the
#: modules the kernel differential suite's no-numpy leg patches
_NUMPY_MODULES = (
    kernel_replay, packed_module, mea_module, competing_module, full_counters_module,
)


@contextlib.contextmanager
def without_numpy():
    saved = [module._np for module in _NUMPY_MODULES]
    try:
        for module in _NUMPY_MODULES:
            module._np = None
        yield
    finally:
        for module, value in zip(_NUMPY_MODULES, saved):
            module._np = value


def replay_reference(cell: Cell) -> Replay:
    """``cell`` on the reference loop."""
    start = time.perf_counter()
    manager = simulator.build_manager(cell.mechanism, cell.geometry, **cell.params)
    result = simulator.simulate(cell.trace, manager, kernel="reference")
    return Replay(cell.label, cell.mechanism, len(cell.trace),
                  time.perf_counter() - start, result, None, "reference")


def replay_pure(cell: Cell) -> Replay:
    """``cell`` on the default kernel as a numpy-free install runs it.

    Without numpy ``open_columnar`` yields an eager trace, so the pure
    leg replays an eager copy (made untimed) of the mapped trace.
    """
    trace = cell.trace
    eager = Trace.from_records(trace.name, list(trace.records), trace.page_bytes)
    with without_numpy():
        return _replay(cell.label, cell.mechanism, eager, cell.geometry, cell.params)


def reference_digests(cells: List[Cell]) -> Dict[str, str]:
    """Digest of each cell's reference-loop result."""
    return {cell.label: replay_reference(cell).digest for cell in cells}

