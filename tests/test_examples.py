"""Smoke tests for the runnable examples: each one's trace builder runs.

The examples are scripts, not package modules, so they are loaded from
their files; only their builders run here, at a tiny size.
"""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

from repro.common.rng import DeterministicRng
from repro.geometry import scaled_geometry
from repro.trace import build_trace, mixed_spec
from repro.trace.spec import BENCHMARKS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(name):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def geometry():
    return scaled_geometry(32)


def test_capacity_pressure_builds_a_trace(geometry):
    trace = load("capacity_pressure").build_pressure_trace(geometry, 2.0, length=800)
    assert len(trace) == 800
    assert {record[3] for record in trace} == set(range(8))
    assert all(record[1] < geometry.total_pages * geometry.page_bytes for record in trace)


@pytest.mark.parametrize("rotating", [False, True])
def test_hot_cold_analysis_builds_a_trace(rotating):
    trace = load("hot_cold_analysis").synthesize(rotating, accesses=800)
    assert len(trace) == 800
    assert trace.name == ("rotating" if rotating else "stable")
    assert all(record[1] < 8_000 * 2048 for record in trace)


def test_custom_workload_profile_builds_a_trace(geometry, monkeypatch):
    profile = load("custom_workload").make_database_profile()
    pattern = profile.build(geometry)
    pages = [page for page, _, _ in islice(pattern.stream(DeterministicRng(3)), 500)]
    assert all(0 <= page < pattern.footprint_pages for page in pages)
    monkeypatch.setitem(BENCHMARKS, profile.name, profile)
    spec = mixed_spec("oltp-mix", ["oltp"] * 4 + ["mcf"] * 4)
    result = build_trace(spec, geometry, length=800, seed=3)
    assert len(result.trace) == 800
    assert sum(result.per_core_requests) == 800
