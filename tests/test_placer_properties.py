"""Property-based tests on page placement and trace assembly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng
from repro.geometry import scaled_geometry
from repro.trace.interleave import PagePlacer

GEOMETRY = scaled_geometry(128)

touch = st.tuples(
    st.integers(min_value=0, max_value=7),      # core
    st.integers(min_value=0, max_value=500),    # virtual page
)


class TestPlacerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(touch, max_size=400), st.sampled_from(["spread", "sequential", "slow_only"]))
    def test_no_two_bindings_share_a_frame(self, touches, policy):
        placer = PagePlacer(GEOMETRY, policy, DeterministicRng(3))
        bindings = {}
        for core, vpage in touches:
            frame = placer.place(core, vpage)
            key = (core, vpage)
            if key in bindings:
                assert bindings[key] == frame  # stable
            bindings[key] = frame
        frames = list(bindings.values())
        assert len(frames) == len(set(frames))  # injective

    @settings(max_examples=60, deadline=None)
    @given(st.lists(touch, max_size=400))
    def test_all_frames_within_flat_space(self, touches):
        placer = PagePlacer(GEOMETRY, "spread", DeterministicRng(3))
        for core, vpage in touches:
            frame = placer.place(core, vpage)
            assert 0 <= frame < GEOMETRY.total_pages

    @settings(max_examples=40, deadline=None)
    @given(st.lists(touch, max_size=300))
    def test_pages_allocated_counts_distinct_bindings(self, touches):
        placer = PagePlacer(GEOMETRY, "spread", DeterministicRng(3))
        for core, vpage in touches:
            placer.place(core, vpage)
        assert placer.pages_allocated == len({t for t in touches})

    @settings(max_examples=40, deadline=None)
    @given(st.lists(touch, max_size=300))
    def test_same_seed_same_placement(self, touches):
        a = PagePlacer(GEOMETRY, "spread", DeterministicRng(9))
        b = PagePlacer(GEOMETRY, "spread", DeterministicRng(9))
        for core, vpage in touches:
            assert a.place(core, vpage) == b.place(core, vpage)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(touch, max_size=200))
    def test_slow_only_never_places_fast(self, touches):
        placer = PagePlacer(GEOMETRY, "slow_only", DeterministicRng(3))
        for core, vpage in touches:
            assert placer.place(core, vpage) >= GEOMETRY.fast_pages
