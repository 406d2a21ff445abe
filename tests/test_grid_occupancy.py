"""Tests for repro.grid.occupancy (the O(h*v) occupancy array)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Interval, Rect
from repro.grid import FREE, OBSTACLE, RoutingGrid, TrackSet, UsableRuns


def make_grid(nv=10, nh=8) -> RoutingGrid:
    return RoutingGrid(
        TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10))
    )


def h_usable(g, h_idx, v_lo, v_hi, net_id):
    """Is the whole h-track span ``[v_lo, v_hi]`` usable by the net?"""
    return bool(g.usable_window(net_id, Interval(v_lo, v_hi), Interval(h_idx, h_idx))[0].all())


def v_usable(g, v_idx, h_lo, h_hi, net_id):
    return bool(g.usable_window(net_id, Interval(v_idx, v_idx), Interval(h_lo, h_hi))[1].all())


def run_around(usable, pos, offset):
    """The run of a one-track mask holding ``pos``, or ``None``."""
    if not usable[pos]:
        return None
    lo, hi = UsableRuns(usable[np.newaxis]).around(np.zeros(1, dtype=np.intp), np.array([pos]))
    return Interval(int(lo[0]) + offset, int(hi[0]) + offset)


def h_run(g, h_idx, v_idx, net_id, within=None):
    """The usable run around ``v_idx`` on an h-track, inside ``within``."""
    window = within or Interval(0, g.num_vtracks - 1)
    if not window.contains(v_idx):
        return None
    h_ok = g.usable_window(net_id, window, Interval(h_idx, h_idx))[0]
    return run_around(h_ok[0], v_idx - window.lo, window.lo)


def v_run(g, v_idx, h_idx, net_id):
    """The usable run around ``h_idx`` on a v-track."""
    v_ok = g.usable_window(net_id, Interval(v_idx, v_idx), Interval(0, g.num_htracks - 1))[1]
    return run_around(v_ok[:, 0], h_idx, 0)


class TestBasics:
    def test_shape(self):
        g = make_grid(10, 8)
        assert g.num_vtracks == 10
        assert g.num_htracks == 8
        assert g.num_intersections == 80

    def test_coord_of(self):
        g = make_grid()
        assert g.coord_of(3, 2) == (30, 20)

    def test_fresh_grid_fully_free(self):
        g = make_grid()
        assert g.utilization() == 0.0
        assert g.corner_free(4, 4, 1)
        assert g.owners() == []


class TestObstacles:
    def test_add_obstacle_blocks_both(self):
        g = make_grid()
        blocked = g.add_obstacle(Rect(20, 20, 40, 30))
        assert blocked == 6  # 3 v-tracks x 2 h-tracks
        assert not g.corner_free(2, 2, 1)
        assert g.h_slot(2, 2) == OBSTACLE
        assert g.v_slot(2, 2) == OBSTACLE

    def test_one_direction_obstacle(self):
        g = make_grid()
        g.add_obstacle(Rect(20, 20, 20, 20), block_h=True, block_v=False)
        assert g.h_slot(2, 2) == OBSTACLE
        assert g.v_slot(2, 2) == FREE
        assert not g.corner_free(2, 2, 1)

    def test_obstacle_outside_tracks_is_noop(self):
        g = make_grid()
        assert g.add_obstacle(Rect(5, 5, 7, 7)) == 0

    def test_obstacle_over_wire_rejected(self):
        g = make_grid()
        g.occupy_h(2, 0, 5, net_id=1)
        with pytest.raises(ValueError):
            g.add_obstacle(Rect(0, 20, 90, 20))

    def test_double_obstacle_counts_once(self):
        g = make_grid()
        g.add_obstacle(Rect(20, 20, 20, 20))
        assert g.add_obstacle(Rect(20, 20, 20, 20)) == 0


class TestTerminals:
    def test_reserve_blocks_other_nets(self):
        g = make_grid()
        g.reserve_terminal(3, 3, net_id=1)
        assert g.corner_free(3, 3, 1)
        assert not g.corner_free(3, 3, 2)

    def test_reserve_collision_rejected(self):
        g = make_grid()
        g.reserve_terminal(3, 3, net_id=1)
        with pytest.raises(ValueError):
            g.reserve_terminal(3, 3, net_id=2)

    def test_reserve_requires_positive_id(self):
        g = make_grid()
        with pytest.raises(ValueError):
            g.reserve_terminal(0, 0, net_id=0)

    def test_unrouted_terminal_counting(self):
        g = make_grid()
        g.reserve_terminal(3, 3, net_id=1)
        g.reserve_terminal(5, 5, net_id=1)
        assert g.unrouted_terminals_near(4, 4, radius=2) == 2
        g.mark_terminal_routed(3, 3)
        assert g.unrouted_terminals_near(4, 4, radius=2) == 1
        g.mark_terminal_routed(3, 3)  # extra mark is harmless
        assert g.unrouted_terminals_near(4, 4, radius=2) == 1


class TestSpans:
    def test_occupy_and_query_h(self):
        g = make_grid()
        g.occupy_h(2, 1, 4, net_id=7)
        assert g.h_slot(3, 2) == 7
        assert h_usable(g, 2, 1, 4, net_id=7)
        assert not h_usable(g, 2, 1, 4, net_id=8)
        # Crossing stays open: vertical slots untouched.
        assert g.v_slot(3, 2) == FREE
        assert v_usable(g, 3, 0, 7, net_id=8)

    def test_occupy_conflict_raises(self):
        g = make_grid()
        g.occupy_h(2, 1, 4, net_id=7)
        with pytest.raises(ValueError):
            g.occupy_h(2, 3, 6, net_id=8)
        g.occupy_h(2, 3, 6, net_id=7)  # same net may extend

    def test_occupy_v(self):
        g = make_grid()
        g.occupy_v(5, 0, 3, net_id=2)
        assert g.v_slot(5, 1) == 2
        with pytest.raises(ValueError):
            g.occupy_v(5, 2, 5, net_id=3)

    def test_occupy_corner(self):
        g = make_grid()
        g.occupy_corner(4, 4, net_id=3)
        assert g.h_slot(4, 4) == 3 and g.v_slot(4, 4) == 3
        with pytest.raises(ValueError):
            g.occupy_corner(4, 4, net_id=5)

    def test_swapped_bounds_accepted(self):
        g = make_grid()
        g.occupy_h(1, 5, 2, net_id=1)
        assert g.h_slot(3, 1) == 1


class TestFreeSpan:
    """The usable run around an entry cell: ``usable_window`` + ``UsableRuns``."""

    def test_full_row_free(self):
        g = make_grid(10, 8)
        assert h_run(g, 3, 5, net_id=1) == Interval(0, 9)

    def test_blocked_entry_returns_none(self):
        g = make_grid()
        g.occupy_h(3, 5, 5, net_id=2)
        assert h_run(g, 3, 5, net_id=1) is None
        assert h_run(g, 3, 5, net_id=2) == Interval(0, 9)

    def test_span_stops_at_foreign_wire(self):
        g = make_grid()
        g.occupy_h(3, 2, 2, net_id=2)
        g.occupy_h(3, 8, 8, net_id=2)
        assert h_run(g, 3, 5, net_id=1) == Interval(3, 7)

    def test_window_clipping(self):
        g = make_grid()
        assert h_run(g, 3, 5, net_id=1, within=Interval(4, 6)) == Interval(4, 6)
        assert h_run(g, 3, 5, net_id=1, within=Interval(6, 8)) is None

    def test_free_span_v(self):
        g = make_grid()
        g.occupy_v(4, 6, 7, net_id=9)
        assert v_run(g, 4, 2, net_id=1) == Interval(0, 5)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 3)), max_size=6
        ),
        st.integers(0, 9),
    )
    def test_free_span_matches_naive(self, blocks, probe):
        g = make_grid(10, 4)
        occupied = set()
        for start, width in blocks:
            end = min(9, start + width - 1)
            if h_usable(g, 2, start, end, net_id=2):
                g.occupy_h(2, start, end, net_id=2)
                occupied.update(range(start, end + 1))
        span = h_run(g, 2, probe, net_id=1)
        if probe in occupied:
            assert span is None
        else:
            assert span is not None and span.contains(probe)
            assert all(i not in occupied for i in span)
            if span.lo > 0:
                assert span.lo - 1 in occupied
            if span.hi < 9:
                assert span.hi + 1 in occupied


class TestUsableWindow:
    """``usable_window`` against per-cell reads of the footprint block."""

    @staticmethod
    def block(base, fp, n):
        span, guard = fp
        return range(max(0, base - guard), min(n - 1, base + span - 1 + guard) + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["dense", "sparse"]),
        st.sampled_from([(1, 0), (2, 1), (1, 2), (3, 0)]),
        st.lists(
            st.tuples(
                st.sampled_from("hvo"), st.integers(0, 8), st.integers(0, 8),
                st.integers(0, 8), st.sampled_from([1, 2]),
            ),
            max_size=10,
        ),
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    )
    def test_masks_match_per_cell_reads(self, backend, fp, ops, vs, hs):
        g = RoutingGrid(TrackSet(range(0, 90, 10)), TrackSet(range(0, 70, 10)), backend)
        g.set_net_footprint(1, *fp)
        for kind, track, a, b, net in ops:
            lo, hi = min(a, b), max(a, b)
            try:
                if kind == "h":
                    g.occupy_h(min(track, 6), lo, hi, net)
                elif kind == "v":
                    g.occupy_v(track, min(lo, 6), min(hi, 6), net)
                else:
                    g.add_obstacle(Rect(track * 10, min(a, 6) * 10, track * 10, min(a, 6) * 10),
                                   block_h=net == 1, block_v=net == 2)
            except ValueError:
                pass
        v_iv, h_iv = Interval(*sorted(vs)), Interval(*sorted(hs))
        h_ok, v_ok, corner_ok = g.usable_window(1, v_iv, h_iv)
        assert h_ok.shape == v_ok.shape == corner_ok.shape == (h_iv.count, v_iv.count)
        for h in range(h_iv.lo, h_iv.hi + 1):
            for v in range(v_iv.lo, v_iv.hi + 1):
                cell = (h - h_iv.lo, v - v_iv.lo)
                assert h_ok[cell] == all(
                    g.h_slot(v, r) in (FREE, 1) for r in self.block(h, fp, 7)
                )
                assert v_ok[cell] == all(
                    g.v_slot(r, h) in (FREE, 1) for r in self.block(v, fp, 9)
                )
                assert corner_ok[cell] == all(
                    g.h_slot(c, r) in (FREE, 1) and g.v_slot(c, r) in (FREE, 1)
                    for c in self.block(v, fp, 9)
                    for r in self.block(h, fp, 7)
                )

    def test_window_outside_grid_rejected(self):
        g = make_grid(5, 5)
        with pytest.raises(IndexError):
            g.usable_window(1, Interval(0, 5), Interval(0, 4))


class TestStatistics:
    def test_densities(self):
        g = make_grid(5, 5)
        g.occupy_h(2, 0, 4, net_id=1)
        assert g.routed_density_near(2, 2, radius=2) > 0
        assert g.congestion_near(2, 2, radius=2) >= g.routed_density_near(2, 2, 2)

    def test_congestion_counts_obstacles(self):
        g = make_grid(5, 5)
        g.add_obstacle(Rect(0, 0, 40, 40))
        assert g.routed_density_near(2, 2, radius=2) == 0.0
        assert g.congestion_near(2, 2, radius=2) == 1.0

    def test_owners(self):
        g = make_grid()
        g.occupy_h(1, 0, 2, net_id=5)
        g.occupy_v(7, 0, 2, net_id=3)
        assert g.owners() == [3, 5]

    def test_clear_net(self):
        g = make_grid()
        g.occupy_h(1, 0, 2, net_id=5)
        g.occupy_corner(6, 6, net_id=5)
        freed = g.rip_net(5)
        assert freed == 5  # 3 h-slots + corner's h and v slots
        assert g.owners() == []
        with pytest.raises(ValueError):
            g.rip_net(0)

    def test_owners_near(self):
        g = make_grid()
        g.occupy_h(2, 2, 3, net_id=4)
        g.occupy_v(8, 0, 1, net_id=6)
        assert g.owners_near(2, 2, radius=1) == [4]
        assert 6 in g.owners_near(8, 1, radius=1)


class TestClearNetRoundTrip:
    """rip_net must exactly undo a net's commits (rip-up safety)."""

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_commit_clear_restores_grid(self, seed):
        import random as _random
        from repro.geometry import Point

        rng = _random.Random(seed)
        g = make_grid(12, 12)
        # Pre-existing foreign wiring that must survive untouched.
        g.occupy_h(2, 0, 5, net_id=7)
        g.occupy_v(9, 3, 8, net_id=7)
        before = g.snapshot()
        # Commit a random staircase for net 3 in the free region.
        x = rng.randrange(3, 8) * 10
        y = rng.randrange(4, 8) * 10
        points = [Point(x, y)]
        for _ in range(3):
            last = points[-1]
            if rng.random() < 0.5:
                points.append(Point(min(110, last.x + 10), last.y))
            else:
                points.append(Point(last.x, max(40, min(110, last.y + 10))))
        dedup = [points[0]]
        for p in points[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        corners = []
        for a, b, c in zip(dedup, dedup[1:], dedup[2:]):
            if (a.x == b.x) != (b.x == c.x):
                corners.append(
                    (g.vtracks.index_of(b.x), g.htracks.index_of(b.y))
                )
        try:
            g.commit_path(3, dedup, corners)
        except ValueError:
            return  # collided with the foreign wiring; nothing to test
        g.rip_net(3)
        assert g.matches(before)


class TestIndexValidation:
    """Index-taking accessors reject out-of-range (esp. negative) indices.

    Python's negative indexing used to wrap around silently, returning
    the wrong cell instead of failing; every point accessor now raises
    ``IndexError`` naming the offending index.
    """

    def test_coord_of_negative_v(self):
        g = make_grid()
        with pytest.raises(IndexError, match="v-track index -1"):
            g.coord_of(-1, 2)

    def test_coord_of_negative_h(self):
        g = make_grid()
        with pytest.raises(IndexError, match="h-track index -3"):
            g.coord_of(3, -3)

    def test_coord_of_too_large(self):
        g = make_grid(10, 8)
        with pytest.raises(IndexError, match="v-track index 10"):
            g.coord_of(10, 0)
        with pytest.raises(IndexError, match="h-track index 8"):
            g.coord_of(0, 8)

    def test_slot_accessors_validate(self):
        g = make_grid()
        for call in (
            lambda: g.h_slot(-1, 0),
            lambda: g.v_slot(0, -2),
            lambda: g.corner_free(-4, 0, 1),
        ):
            with pytest.raises(IndexError):
                call()

    def test_mutators_validate(self):
        g = make_grid()
        with pytest.raises(IndexError):
            g.reserve_terminal(-1, 0, net_id=1)
        with pytest.raises(IndexError):
            g.occupy_corner(0, -1, net_id=1)
        with pytest.raises(IndexError):
            g.mark_terminal_routed(-2, -2)

    def test_rejected_mutation_leaves_grid_clean(self):
        g = make_grid()
        before = g.snapshot()
        with pytest.raises(IndexError):
            g.reserve_terminal(-1, 3, net_id=5)
        assert g.matches(before)

    def test_window_snapshot_entirely_off_grid(self):
        g = make_grid(10, 8)
        with pytest.raises(IndexError):
            g.window_snapshot(Interval(-5, -1), Interval(0, 3))
        with pytest.raises(IndexError):
            g.window_snapshot(Interval(0, 3), Interval(8, 11))

    def test_window_snapshot_partial_overhang_still_clamps(self):
        # Padded search windows legitimately poke past the edge; only a
        # fully off-grid window is an error.
        g = make_grid(10, 8)
        snap = g.window_snapshot(Interval(-2, 4), Interval(5, 9))
        assert g.window_matches(snap)
