"""Edge-case tests for MBFS internals and router fallbacks."""

import numpy as np

from repro.geometry import Interval, Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.core import LevelBConfig, LevelBRouter
from repro.core.search import MBFSearch
from repro.core.tig import TrackIntersectionGraph
from repro.netlist import Design, Edge


def fresh_tig(nv=8, nh=8):
    return TrackIntersectionGraph(
        TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10))
    )


def corner_hits_on_v(grid, v_idx, h_lo, h_hi, net_id):
    """h-indices in ``[h_lo, h_hi]`` where ``net_id`` may corner on v-track."""
    corner_ok = grid.usable_window(
        net_id, Interval(v_idx, v_idx), Interval(h_lo, h_hi)
    )[2]
    return [h_lo + i for i in np.flatnonzero(corner_ok[:, 0]).tolist()]


def corner_hits_on_h(grid, h_idx, v_lo, v_hi, net_id):
    """v-indices in ``[v_lo, v_hi]`` where ``net_id`` may corner on h-track."""
    corner_ok = grid.usable_window(
        net_id, Interval(v_lo, v_hi), Interval(h_idx, h_idx)
    )[2]
    return [v_lo + i for i in np.flatnonzero(corner_ok[0]).tolist()]


class TestCornerCandidates:
    """The usable window's corner mask, read along one track."""

    def test_empty_grid_all_candidates(self):
        grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 50, 10)))
        assert corner_hits_on_v(grid, 2, 0, 4, net_id=1) == [0, 1, 2, 3, 4]
        assert corner_hits_on_h(grid, 2, 1, 3, net_id=1) == [1, 2, 3]

    def test_foreign_wire_excluded(self):
        grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 50, 10)))
        grid.occupy_h(2, 0, 4, net_id=9)  # h-track 2 fully foreign
        # Cornering on v-track 1 at h=2 needs both slots.
        assert 2 not in corner_hits_on_v(grid, 1, 0, 4, net_id=1)
        assert 2 in corner_hits_on_v(grid, 1, 0, 4, net_id=9)

    def test_matches_scalar_corner_free(self):
        grid = RoutingGrid(TrackSet(range(0, 80, 10)), TrackSet(range(0, 80, 10)))
        grid.occupy_h(3, 1, 5, net_id=2)
        grid.occupy_v(4, 2, 6, net_id=3)
        for v in range(8):
            batched = set(corner_hits_on_v(grid, v, 0, 7, net_id=1))
            scalar = {h for h in range(8) if grid.corner_free(v, h, 1)}
            assert batched == scalar


class TestSearchLimits:
    def test_node_budget_abort(self):
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b, max_nodes=2).run()
        assert res.aborted
        assert not res.found

    def test_entries_cap_one_still_finds_path(self):
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b, max_entries_per_track=1).run()
        assert res.found
        assert res.min_corners == 1

    def test_degenerate_region_single_track(self):
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 30), Point(70, 30)])
        a, b = tig.terminals_of(1)
        region = (Interval(0, 7), Interval(3, 3))
        res = MBFSearch(tig.grid, 1, a, b, region=region).run()
        assert res.found
        assert res.min_corners == 0

    def test_blocked_root_spans(self):
        """Both root tracks blocked at the source: search fails fast."""
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(30, 30), Point(70, 70)])
        # Surround the source so neither root can slide anywhere and
        # no corner is reachable.
        tig.add_obstacle(Rect(20, 30, 20, 30))
        tig.add_obstacle(Rect(40, 30, 40, 30))
        tig.add_obstacle(Rect(30, 20, 30, 20))
        tig.add_obstacle(Rect(30, 40, 30, 40))
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b).run()
        # Roots exist (the terminal cell itself is usable) but nothing
        # is reachable beyond the walls.
        assert not res.found


class TestMazeRescue:
    def make_design(self):
        d = Design("rescue")
        for name, x, y in (("c1", 0, 0), ("c2", 200, 120)):
            cell = d.add_cell(name, 16, 16)
            cell.place(x, y)
        net = d.add_net("n")
        net.add_pin(d.add_pin("c1", "p", Edge.TOP, 8))
        net.add_pin(d.add_pin("c2", "p", Edge.TOP, 8))
        return d

    def test_rescue_triggers_when_mbfs_capped(self):
        """With max_depth=0 the MBFS can never turn; the maze rescues."""
        d = self.make_design()
        config = LevelBConfig(max_depth=0, maze_fallback=True, max_ripups=0)
        router = LevelBRouter(
            Rect(-16, -16, 260, 200), list(d.nets.values()), config=config
        )
        result = router.route()
        conn = result.routed[0].connections[0]
        assert result.completion_rate == 1.0
        assert conn.expansions_used == -1  # marks the maze rescue

    def test_no_rescue_when_disabled(self):
        d = self.make_design()
        config = LevelBConfig(max_depth=0, maze_fallback=False, max_ripups=0)
        router = LevelBRouter(
            Rect(-16, -16, 260, 200), list(d.nets.values()), config=config
        )
        result = router.route()
        assert result.completion_rate == 0.0
