"""Tests for the Lee/Dijkstra maze baseline."""


from repro.geometry import Point, Rect, Interval
from repro.grid import TrackSet
from repro.core.tig import TrackIntersectionGraph
from repro.maze import MazeRouter, lee_search

from conftest import make_toy_design


def make_tig(n=8):
    ts = TrackSet(range(0, n * 10, 10))
    return TrackIntersectionGraph(ts, TrackSet(range(0, n * 10, 10)))


class TestLeeSearch:
    def test_straight_connection(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        waypoints, corners, stats = lee_search(tig.grid, 1, a, b)
        assert waypoints == [Point(0, 30), Point(70, 30)]
        assert corners == []
        assert stats.nodes_expanded > 0

    def test_l_connection(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        waypoints, corners, _ = lee_search(tig.grid, 1, a, b)
        assert waypoints[0] == Point(0, 0)
        assert waypoints[-1] == Point(50, 40)
        assert len(corners) == 1

    def test_length_optimal_on_empty_grid(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        waypoints, _, _ = lee_search(tig.grid, 1, a, b, via_penalty=0.0)
        length = sum(p.manhattan_to(q) for p, q in zip(waypoints, waypoints[1:]))
        assert length == 90  # Manhattan distance

    def test_detours_around_obstacle(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.add_obstacle(Rect(30, 0, 40, 60))  # wall with a gap at top
        waypoints, corners, stats = lee_search(tig.grid, 1, a, b)
        assert waypoints is not None
        length = sum(p.manhattan_to(q) for p, q in zip(waypoints, waypoints[1:]))
        assert length > 70  # forced detour
        # The wave's exact effort: a change in what it explores shows
        # here even when the path survives.
        assert (stats.nodes_expanded, stats.nodes_pushed) == (84, 90)

    def test_wide_net_effort_pinned(self):
        """A span-2, guard-1 net probes its whole block at every cell."""
        tig = make_tig(10)
        tig.grid.set_net_footprint(1, 2, 1)
        a, b = tig.register_net(1, [Point(0, 10), Point(90, 60)])
        tig.grid.occupy_h(3, 4, 8, net_id=5)  # inside the guard of row 1
        waypoints, corners, stats = lee_search(tig.grid, 1, a, b)
        assert waypoints == [Point(0, 10), Point(0, 60), Point(90, 60)]
        assert corners == [(0, 6)]
        assert (stats.nodes_expanded, stats.nodes_pushed) == (159, 167)

    def test_unroutable_returns_none(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.add_obstacle(Rect(30, 0, 40, 70))  # full wall
        waypoints, corners, stats = lee_search(tig.grid, 1, a, b)
        assert waypoints is None and corners is None
        assert stats.nodes_expanded > 0

    def test_region_restricts(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.add_obstacle(Rect(30, 30, 40, 30))
        region = (Interval(0, 7), Interval(3, 3))  # single row
        waypoints, _, _ = lee_search(tig.grid, 1, a, b, region=region)
        assert waypoints is None

    def test_high_via_penalty_prefers_fewer_corners(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        _, corners_cheap, _ = lee_search(tig.grid, 1, a, b, via_penalty=0.001)
        _, corners_dear, _ = lee_search(tig.grid, 1, a, b, via_penalty=10**6)
        assert len(corners_dear) <= len(corners_cheap)
        assert len(corners_dear) == 1

    def test_respects_foreign_wires(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.grid.occupy_h(3, 1, 6, net_id=5)
        waypoints, corners, _ = lee_search(tig.grid, 1, a, b)
        assert waypoints is not None
        assert len(corners) >= 2  # must leave the blocked row


class TestMazeRouter:
    def test_routes_toy_design(self):
        design = make_toy_design()
        router = MazeRouter(Rect(0, 0, 256, 256), list(design.nets.values()))
        result = router.route()
        assert result.completion_rate == 1.0
        assert result.total_wire_length > 0

    def test_same_model_as_levelb(self):
        """Maze and MBFS routers produce comparable wire lengths."""
        from repro.core import LevelBRouter

        design = make_toy_design()
        maze = MazeRouter(Rect(0, 0, 256, 256), list(design.nets.values())).route()
        design2 = make_toy_design()
        mbfs = LevelBRouter(Rect(0, 0, 256, 256), list(design2.nets.values())).route()
        assert maze.completion_rate == mbfs.completion_rate == 1.0
        # Both should be within 2x of each other on this easy instance.
        assert maze.total_wire_length < 2 * mbfs.total_wire_length
        assert mbfs.total_wire_length < 2 * maze.total_wire_length


class TestMazeRouterPenalty:
    def _router(self, **kwargs):
        from repro.core import LevelBConfig

        design = make_toy_design()
        return MazeRouter(
            Rect(0, 0, 256, 256),
            list(design.nets.values()),
            config=LevelBConfig(maze_via_penalty=3.5),
            **kwargs,
        )

    def test_engine_carries_configured_penalty(self):
        assert self._router()._engine.via_penalty == 3.5

    def test_vias_objective_scales_penalty(self):
        from repro.core.router import VIA_OBJECTIVE_SCALE

        router = self._router(objective="vias")
        assert router._engine.via_penalty == 3.5 * VIA_OBJECTIVE_SCALE
