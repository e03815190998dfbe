"""Golden synthesis digests: trace synthesis is pinned record for record.

Every workload's 4,000-record trace at scale 32, seed 1 must hash to the
value recorded here, with the same per-core request counts, placement
fraction and allocated page count.  One mix is also pinned under the
``sequential`` and ``slow_only`` placements.  Running this on every
supported interpreter checks that the draws the patterns make are the
ones :class:`random.Random` makes there.

The pattern streams draw ``randrange``/``randint`` values with the
``getrandbits`` rejection loop and ``expovariate(1.0)`` as
``-log(1.0 - random())``; the equivalence tests below pin both against
:class:`random.Random` itself, for every bound the profiles use.
"""

import hashlib
import math
import random

import pytest

from repro.geometry import scaled_geometry
from repro.trace.interleave import build_trace
from repro.trace.record import LINES_PER_PAGE
from repro.trace.spec import BENCHMARKS
from repro.trace.workloads import get_workload, workload_names

LENGTH = 4000
SCALE = 32
SEED = 1

# name -> (sha256 of repr(records), per_core_requests,
#          fast_resident_fraction, pages_allocated)
GOLDEN = {
    "astar": ("236fed8d25ef011f788ce29d7d104aee331e07ab509a284d1893138b8d81d63d", [502, 538, 509, 503, 457, 507, 504, 480], 0.11351351351351352, 1110),
    "bwaves": ("b58bbe5bdf33816fc495e6f34b0a0966b1f228f59bf4826143693272ccdbe49a", [502, 538, 470, 480, 468, 515, 521, 506], 0.13664596273291926, 161),
    "bzip": ("4c682303ba4e7323dfd9762ceb9ed71d7b3f7f5e5a17c414b6de4fbdb681ddee", [549, 490, 465, 493, 497, 477, 539, 490], 0.10703592814371257, 1336),
    "cactus": ("f0cf564fb8bb831e26171ece03ea1e1d5cec22266244b886db049c3a81b413b2", [503, 521, 486, 493, 502, 542, 470, 483], 0.11428571428571428, 1120),
    "gcc": ("06d9e754601ad77a3b9c63c39361502f8d1e572d323c2d1d5873021e98dc823f", [524, 478, 512, 495, 489, 492, 503, 507], 0.12415130940834142, 1031),
    "gems": ("bedf95d051986fe52abd9f425a2f6978b2e54359567d1086e82f71d2b8d3eb23", [533, 513, 488, 504, 494, 461, 491, 516], 0.11119554204660588, 3948),
    "lbm": ("5c38a6506207c954c2b39cf3a76990cf66ec44a9d3b3f24b5872c9627eefc5fc", [477, 506, 487, 478, 525, 505, 484, 538], 0.0931899641577061, 279),
    "leslie": ("14e518abaa89914a80bccda1c99f9a00b51db2b669399b5c026aac303409570c", [473, 503, 533, 492, 488, 504, 525, 482], 0.10108303249097472, 554),
    "libquantum": ("36d26683c59f0a0016667eb60b6000751d126020265dc5b4434774a1c81aff1e", [511, 513, 481, 485, 518, 484, 526, 482], 0.14864864864864866, 148),
    "mcf": ("d6db669fedc16499531e1f6e4ecd6d0622ae521b46702549d1e57f7ab793945d", [533, 482, 479, 519, 517, 468, 494, 508], 0.10651465798045602, 3070),
    "milc": ("aeb5606380c4cd71945f8400b4d428569f1fec4408d79b4f89d9db66125980b9", [507, 508, 508, 457, 493, 506, 550, 471], 0.12, 2025),
    "omnetpp": ("b07d5612eef164a5052ea3421e1a3be579d8d8c75c69faa373405e717e633851", [488, 558, 516, 506, 453, 464, 511, 504], 0.11666666666666667, 960),
    "soplex": ("9ff52e4f2804fce5e8375fdd03a638bc9ad7b3d0827a0d7874b4a61786284083", [497, 508, 474, 512, 490, 471, 528, 520], 0.11937377690802348, 1022),
    "xalanc": ("4e5e4a262146ed1d66c3e1c4e094840e64b12c5a94e83efe046443663679b5c1", [490, 518, 498, 518, 493, 490, 518, 475], 0.1252676659528908, 934),
    "zeusmp": ("53b24e1215c770c13e9cc89febfb5c486eb72ee571158657e4046f34a9a5f243", [477, 515, 497, 485, 484, 522, 527, 493], 0.10745233968804159, 577),
    "mix1": ("84eacd915632895e41a2919d1438d3b954ed1ed7652810a4e7d224af4f0694a8", [388, 483, 544, 538, 463, 642, 505, 437], 0.1214574898785425, 1729),
    "mix2": ("9ce409f30277c277f3ac69745035c7be244453be75b0b78700ebd89412a0012b", [447, 545, 482, 649, 453, 403, 513, 508], 0.11455289304500292, 1711),
    "mix3": ("fabb4c51f465469bb14115e45f55095364ccc754c70c0d36d9b57c296b9cbc68", [436, 572, 477, 657, 582, 471, 360, 445], 0.115, 1200),
    "mix4": ("cb08e310a5897d44481fd5b3850661415cbb2a10856a06ec91101db7549b46e5", [433, 418, 450, 466, 665, 627, 485, 456], 0.10703666997026759, 2018),
    "mix5": ("2be03f7b24fd79d1b34bb479925cf4fe233d5ab67af3f87b88748018768c77a2", [613, 486, 484, 449, 390, 400, 666, 512], 0.11937244201909959, 1466),
    "mix6": ("c82392dae496acd6c84e060328c22596848ec6474f1c9836a3c958e5396f2e5e", [371, 627, 422, 439, 471, 578, 647, 445], 0.10245901639344263, 732),
    "mix7": ("4371036e80bf15b6f61e8efed2eaf28cace7286eb2b7ebc23cb53ee4bcf3fea1", [403, 596, 593, 461, 461, 440, 546, 500], 0.10952738184546136, 1333),
    "mix8": ("e7eaa74654f4497d1dfbbf1052259ee7e6af4689990982d21d09db64ec8de7dc", [461, 448, 628, 500, 468, 449, 454, 592], 0.100990099009901, 1010),
    "mix9": ("4844687460137dfa81dce55be2c995cc32023f9c4be8668025c29532130b7f7d", [572, 409, 557, 451, 388, 512, 621, 490], 0.12248743718592965, 1592),
    "mix10": ("11aec3087ca7af688b8543580f8a57a0a5d9f60d25ffc68de7cc77ad9cbab03e", [343, 408, 422, 441, 549, 592, 603, 642], 0.11736178467507274, 1031),
    "mix11": ("c9c8b6af30e0264b46d2e6dd5d7cce9cd68a58da88f8d76529faf5c6de13d591", [486, 454, 587, 507, 549, 440, 435, 542], 0.09726636999364272, 1573),
    "mix12": ("29e60b5b020ed2fbc7247b7610c5f1bd94bac5678861e07168b1c3b75b0198c6", [622, 488, 464, 424, 452, 508, 475, 567], 0.1109616677874916, 1487),
}
PLACED = {
    "sequential": ("f5ac71acb724c891594efe439ed3c93656075c459b71008ebaa6b161371a9c06", [436, 572, 477, 657, 582, 471, 360, 445], 1.0, 1200),
    "slow_only": ("c6ba01441d4fc53493479ee579cee657844268365b3fe0a186c5d336e11e826d", [436, 572, 477, 657, 582, 471, 360, 445], 0.0, 1200),
}


def _digest(result):
    return hashlib.sha256(repr(result.trace.records).encode()).hexdigest()


def _pinned(result):
    return (
        _digest(result),
        result.per_core_requests,
        result.fast_resident_fraction,
        result.pages_allocated,
    )


def test_every_workload_is_pinned():
    assert list(GOLDEN) == workload_names()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_workload_synthesis_matches_golden(name):
    result = build_trace(get_workload(name), scaled_geometry(SCALE), length=LENGTH, seed=SEED)
    assert _pinned(result) == GOLDEN[name]


@pytest.mark.parametrize("placement", list(PLACED))
def test_placement_synthesis_matches_golden(placement):
    result = build_trace(
        get_workload("mix3"), scaled_geometry(SCALE), length=LENGTH, seed=SEED,
        placement=placement,
    )
    assert _pinned(result) == PLACED[placement]


def _bounds(pattern):
    """Every ``n`` a pattern passes to a bounded integer draw."""
    found = {LINES_PER_PAGE, pattern.footprint_pages}
    hot = getattr(pattern, "hot_pages", 0)
    if hot:
        found.update({hot, pattern.footprint_pages - hot} - {0})
    lag = getattr(pattern, "revisit_lag_pages", 0)
    if lag:
        found.add(lag)
    for child in getattr(pattern, "parts", []) + getattr(pattern, "phases", []):
        found |= _bounds(child)
    return found


def _profile_bounds():
    found = set()
    for scale in (16, 32, 64, 128):
        geometry = scaled_geometry(scale)
        for profile in BENCHMARKS.values():
            found |= _bounds(profile.build(geometry))
        # PagePlacer's spread policy draws randrange(total_pages).
        found.add(geometry.total_pages)
    return sorted(found)


def _rejection_draw(rng, n):
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


@pytest.mark.parametrize("n", _profile_bounds() + [1, 2, 3, 5, 7, 1000, 2**20 + 1])
def test_rejection_draw_is_randrange(n):
    for seed in range(100):
        inlined, reference = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert _rejection_draw(inlined, n) == reference.randrange(n)
            assert 1 + _rejection_draw(inlined, n) == reference.randint(1, n)


def test_inlined_expovariate_is_expovariate():
    for seed in range(100):
        inlined, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert -math.log(1.0 - inlined.random()) == reference.expovariate(1.0)
