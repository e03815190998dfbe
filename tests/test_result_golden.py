"""Golden result digests: every registered mechanism is pinned end to end.

The differential suites prove the fast kernels equal the reference loop,
but both sides move together when a shared manager, memory or stats path
changes.  This suite pins the reference loop itself: the
``SimulationResult`` of every mechanism in ``mechanism_names()`` on one
small trace (mix1, 6,000 records, scale 64, seed 1) must hash to the
value recorded here, so a refactor that shifts any field of any
mechanism's result fails even when no kernel is involved.

At default settings neither epoch mechanism reaches an epoch within
this trace, so both are pinned a second time with a 20 us epoch, which
runs their boundaries and paced swaps.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.common.units import us
from repro.geometry import scaled_geometry
from repro.mechanisms.registry import mechanism_names
from repro.system.simulator import build_manager, reference_simulate
from repro.trace import build_trace, get_workload

WORKLOAD = "mix1"
LENGTH = 6_000
SCALE = 64
SEED = 1

#: mechanism -> sha256 of the result's sorted-key JSON.
GOLDEN = {
    "tlm": "02f482d61f50a968e4b62227bb53b7693aeedbfeffd1009958fa674a4d9373b8",
    "mempod": "fd31883b7af16e94e73a22132caf79edb6ff1eacfed35f086cf5eb132f57436c",
    "hma": "d569ebdf2b3897eda0edb2cf338107d56afbe0004d46255dc9f4540b01a390df",
    "thm": "a6e6542f08d020f4a6f03600168ae4156c704169cc253e809ad26030929a7c1b",
    "cameo": "e5dab797764e24015d71af9340003e52835c5f84c274244b6b2a89425bf6a6e3",
    "hbm-only": "b9e8740fd697ef2dbca2eb0a067fc506087ae767c0fef9843a41d7b855dcdbb5",
    "ddr-only": "7e1bcca952ab0eff67f865de363b99f398497de168a8f8946a2a61d65d50996e",
    "hma-mea": "436f78b0fb13f812067316050a5da3175f3fea8c10b67ed25bdb62ee729476b7",
    "thm-pods": "9111faf77551fa06146bc14c9eaa0a6c8b5b8efd0cd36afeed4a55b812de6a5a",
    "mempod-3tier": "f6be8e7f4232b18670dfaea756ecae0383bff38ad59b278883886d1687098148",
    "mempod-bypass": "40ee08b035975d90cf60fda918be3af32bff6a0a0f42c15df707b7b841fab11e",
}

#: epoch mechanism -> (migrations, digest) with ``interval_ps=us(20)``.
GOLDEN_SHORT_EPOCH = {
    "hma": (98, "9d0add73d942166e80db904927d9e84637c4adfd64d1a34b834fab10e1fa614f"),
    "hma-mea": (104, "7d58e907cf877e385a9a320a916676f40c0dfe3d18ad842f49a6b8aeeba5aa6b"),
}


def result_digest(result) -> str:
    blob = json.dumps(asdict(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def trace():
    geometry = scaled_geometry(SCALE)
    return build_trace(
        get_workload(WORKLOAD), geometry, length=LENGTH, seed=SEED
    ).trace


def test_every_mechanism_is_pinned():
    assert sorted(GOLDEN) == sorted(mechanism_names())


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_reference_result_digest(trace, kind):
    manager = build_manager(kind, scaled_geometry(SCALE))
    result = reference_simulate(trace, manager)
    assert result_digest(result) == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHORT_EPOCH))
def test_short_epoch_result_digest(trace, kind):
    manager = build_manager(kind, scaled_geometry(SCALE), interval_ps=us(20))
    result = reference_simulate(trace, manager)
    assert (result.migrations, result_digest(result)) == GOLDEN_SHORT_EPOCH[kind]
