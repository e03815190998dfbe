"""Shared fixtures for the per-figure benchmark harness.

Every benchmark reads its sizing from the ``REPRO_*`` environment
variables (see :class:`repro.experiments.ExperimentConfig`) so the full
paper reproduction and quick smoke runs use the same code:

* full run (default): all 27 workloads, 250k-request traces;
* quick run: e.g. ``REPRO_LENGTH=60000 REPRO_WORKLOADS=xalanc,cactus``.

Each benchmark prints the paper-shaped table and also writes it to
``benchmarks/results/`` so a completed run leaves the full artefact set
on disk.

Execution goes through the shared :class:`repro.runner.SweepRunner`:
``REPRO_JOBS`` controls the process-pool width and the on-disk result
cache (``REPRO_CACHE_DIR``, disable with ``REPRO_NO_CACHE=1``) makes
repeated benchmark runs warm — a rerun replays cached cells instead of
simulating.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.runner import SweepRunner, set_default_runner

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """Experiment sizing resolved once per benchmark session."""
    return ExperimentConfig.from_env()


@pytest.fixture(scope="session", autouse=True)
def sweep_runner():
    """Install the env-configured runner for every benchmark in the session."""
    runner = SweepRunner.from_env()
    previous = set_default_runner(runner)
    yield runner
    set_default_runner(previous)
    if runner.tracker.total:
        print(f"\n[repro.runner] {runner.tracker.summary()}")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def oracle_figures(config):
    """Figures 1-3 share one oracle study over the configured workloads."""
    from repro.experiments import run_oracle_figures

    return run_oracle_figures(config)


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
