"""Lee-style wave expansion on the routing grid.

Implementation notes
--------------------
The search state is ``(v_idx, h_idx, direction)``: a wavefront cell
plus the direction the wire is travelling through it.  Straight moves
cost their geometric length (tracks are non-uniform); a direction
change costs ``via_penalty`` and requires the intersection to accept a
corner via.  With non-negative costs this is Dijkstra - the standard
generalisation of Lee's algorithm to weighted grids - and it returns a
minimum-cost path whenever one exists, which also makes it the test
oracle for the MBFS router's completeness within a region.

:class:`LeeEngine` packages the search as a
:class:`~repro.core.engine.ConnectionEngine`, so the same code serves
as the standalone :class:`MazeRouter` baseline and as the rescue engine
behind ``LevelBConfig.maze_fallback``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Iterable

from repro import instrument
from repro.instrument.names import (
    MAZE_NODES_EXPANDED,
    MAZE_SEARCHES,
    REGION_EXPANSIONS,
)
from repro.geometry import Interval, Path, Point
from repro.grid import RoutingGrid
from repro.core.engine import (
    ConnectionEngine,
    EngineContext,
    Region,
    RoutedConnection,
    path_length,
)
from repro.core.router import LevelBConfig, LevelBRouter
from repro.core.tig import GridTerminal

HORIZONTAL = 0
VERTICAL = 1

State = tuple[int, int, int]  # (v_idx, h_idx, direction)


@dataclass
class LeeSearchStats:
    """Effort accounting for one wave expansion."""

    nodes_expanded: int = 0
    nodes_pushed: int = 0


def lee_search(
    grid: RoutingGrid,
    net_id: int,
    source: GridTerminal,
    target: GridTerminal,
    *,
    via_penalty: float = 10.0,
    region: tuple[Interval, Interval] | None = None,
) -> tuple[list[Point] | None, list[tuple[int, int]] | None, LeeSearchStats]:
    """Minimum-cost path between two terminals, or ``None``.

    Returns ``(waypoints, corners, stats)``.  Waypoints are the
    compressed corner sequence (source, corners..., target); corners
    are ``(v_idx, h_idx)`` index pairs ready for
    :meth:`repro.grid.RoutingGrid.commit_path`.
    """
    stats = LeeSearchStats()
    if region is None:
        v_iv = Interval(0, grid.num_vtracks - 1)
        h_iv = Interval(0, grid.num_htracks - 1)
    else:
        v_iv = grid.vtracks.clip_indices(
            region[0].hull(Interval.spanning(source.v_idx, target.v_idx))
        )
        h_iv = grid.htracks.clip_indices(
            region[1].hull(Interval.spanning(source.h_idx, target.h_idx))
        )
    xs, ys = grid.vtracks.coords, grid.htracks.coords

    # Usability over the region, read once, as row lists indexed
    # [h - h0][v - v0].  A footprinted (wide) net claims its expanded
    # block at every cell and corner, and the window's masks already
    # probe the expansion the commit will make.
    h_rows, v_rows, corner_rows = (
        mask.tolist() for mask in grid.usable_window(net_id, v_iv, h_iv)
    )
    v0, v1, h0, h1 = v_iv.lo, v_iv.hi, h_iv.lo, h_iv.hi

    dist: dict[State, float] = {}
    parent: dict[State, State | None] = {}
    heap: list[tuple[float, State]] = []
    for direction, rows in ((HORIZONTAL, h_rows), (VERTICAL, v_rows)):
        if rows[source.h_idx - h0][source.v_idx - v0]:
            state = (source.v_idx, source.h_idx, direction)
            dist[state] = 0.0
            parent[state] = None
            heapq.heappush(heap, (0.0, state))
            stats.nodes_pushed += 1

    goal: State | None = None
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist.get(state, float("inf")):
            continue
        stats.nodes_expanded += 1
        v, h, direction = state
        if v == target.v_idx and h == target.h_idx:
            goal = state
            break
        moves: list[tuple[State, float]] = []
        if direction == HORIZONTAL:
            usable = h_rows[h - h0]
            for nv in (v - 1, v + 1):
                if v0 <= nv <= v1 and usable[nv - v0]:
                    moves.append(((nv, h, HORIZONTAL), float(abs(xs[nv] - xs[v]))))
            turn = VERTICAL
        else:
            for nh in (h - 1, h + 1):
                if h0 <= nh <= h1 and v_rows[nh - h0][v - v0]:
                    moves.append(((v, nh, VERTICAL), float(abs(ys[nh] - ys[h]))))
            turn = HORIZONTAL
        if corner_rows[h - h0][v - v0]:
            moves.append(((v, h, turn), via_penalty))
        for nstate, cost in moves:
            nd = d + cost
            if nd < dist.get(nstate, float("inf")):
                dist[nstate] = nd
                parent[nstate] = state
                heapq.heappush(heap, (nd, nstate))
                stats.nodes_pushed += 1

    # One batched instrumentation report per wave expansion: the inner
    # loop above tallies into ``stats`` only.
    inst = instrument.active()
    if inst.enabled:
        inst.count(MAZE_SEARCHES)
        inst.count(MAZE_NODES_EXPANDED, stats.nodes_expanded)

    if goal is None:
        return None, None, stats

    # Walk parents, then compress to waypoints at direction changes.
    states: list[State] = []
    cursor: State | None = goal
    while cursor is not None:
        states.append(cursor)
        cursor = parent[cursor]
    states.reverse()
    waypoints: list[Point] = [Point(xs[states[0][0]], ys[states[0][1]])]
    corners: list[tuple[int, int]] = []
    for prev, nxt in zip(states, states[1:]):
        if prev[2] != nxt[2]:  # in-place direction switch: a corner via
            corners.append((prev[0], prev[1]))
            point = Point(xs[prev[0]], ys[prev[1]])
            if point != waypoints[-1]:
                waypoints.append(point)
    end = Point(xs[goal[0]], ys[goal[1]])
    if end != waypoints[-1]:
        waypoints.append(end)
    elif len(waypoints) == 1:
        waypoints.append(end)  # degenerate same-point path
    return waypoints, corners, stats


class LeeEngine(ConnectionEngine):
    """Lee/Dijkstra wave expansion as a pluggable connection engine.

    Complete within its region (unlike the MBFS, which drops paths with
    more than one corner per track), so with the unbounded region it
    finds a connection whenever one exists.  Committed paths are priced
    with the regular section 3.2 cost model so Lee and MBFS costs
    aggregate on one scale.
    """

    def __init__(self, via_penalty: float = 10.0) -> None:
        self.via_penalty = via_penalty

    @classmethod
    def from_config(cls, config: LevelBConfig) -> "LeeEngine":
        """The engine pricing corners at ``config.maze_via_penalty``."""
        return cls(via_penalty=config.maze_via_penalty)

    def route(
        self,
        ctx: EngineContext,
        net_id: int,
        source: GridTerminal,
        target: GridTerminal,
        regions: Iterable[Region] | None = None,
    ) -> RoutedConnection | None:
        if source == target:
            return None
        grid = ctx.grid
        evaluator = ctx.evaluator(net_id)
        if regions is None:
            regions = ctx.regions(source, target)
        for attempt, region in enumerate(regions):
            if attempt:
                instrument.count(REGION_EXPANSIONS)
            waypoints, corners, stats = lee_search(
                grid,
                net_id,
                source,
                target,
                via_penalty=self.via_penalty,
                region=region,
            )
            ctx.add_nodes(stats.nodes_expanded)
            if waypoints is None or corners is None:
                continue
            # Price the path before committing: the evaluator's memo
            # assumes a frozen grid.
            cost = evaluator.path_cost(
                path_length(waypoints), corners
            ) + evaluator.extra_cost(waypoints, corners)
            with grid.transaction():
                grid.commit_path(net_id, waypoints, corners)
            return RoutedConnection(
                source=source,
                target=target,
                path=Path.from_points(waypoints),
                corners=corners,
                cost=cost,
                expansions_used=attempt,
            )
        return None


class MazeRouter(LevelBRouter):
    """Drop-in level B router that searches with Lee wave expansion.

    Inherits the whole net loop (ordering, Steiner decomposition,
    region escalation, rip-up, refinement) from :class:`LevelBRouter`
    and swaps only the per-connection engine, so benchmark comparisons
    isolate the search algorithm.  Its corner price is the configured
    ``maze_via_penalty``, scaled under ``objective="vias"``.
    """

    def _primary_engine(self) -> ConnectionEngine:
        return LeeEngine.from_config(self.config)

    def _maze_rescue(
        self, net_id: int, source: GridTerminal, target: GridTerminal
    ) -> RoutedConnection | None:
        """No rescue: the primary Lee search already ends on the whole grid."""
        return None
