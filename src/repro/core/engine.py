"""Pluggable connection engines: search -> candidates -> select -> commit.

The level B orchestrator (:class:`repro.core.router.LevelBRouter`)
routes one two-terminal connection at a time.  *How* a connection is
found is an engine concern, expressed by the
:class:`ConnectionEngine` protocol; the orchestrator only sequences
nets, decomposes multi-terminal trees, escalates regions, rips up and
refines.  Two engines ship with the package:

:class:`MBFSEngine` (this module)
    The paper's modified breadth-first search over the Track
    Intersection Graph plus Path Selection Tree backtracking
    (sections 3.1-3.2) - fast, minimum-corner, but incomplete on
    congested grids.
:class:`repro.maze.lee.LeeEngine`
    Lee/Dijkstra wave expansion - complete within a region, used both
    as a standalone baseline and as the rescue engine behind the
    ``maze_fallback`` config knob.

Every engine commits selected paths through
:meth:`repro.grid.RoutingGrid.commit_path` inside a
:meth:`~repro.grid.RoutingGrid.transaction`, so a commit that fails
mid-path rolls back cleanly and the ``txn.*`` counters account for all
wiring mutations uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro import instrument
from repro.instrument.names import REGION_EXPANSIONS
from repro.geometry import Interval, Path, Point
from repro.grid import RoutingGrid
from repro.core.cost import CornerCostEvaluator
from repro.core.search import MBFSearch, candidate_paths
from repro.core.select import select_best_path
from repro.core.tig import GridTerminal

#: A bounded search region in index space, or ``None`` for the whole grid.
Region = tuple[Interval, Interval] | None


@dataclass
class RoutedConnection:
    """One committed two-terminal connection."""

    source: GridTerminal
    target: GridTerminal
    path: Path
    corners: list[tuple[int, int]]
    cost: float
    expansions_used: int

    @property
    def wire_length(self) -> int:
        return self.path.length

    @property
    def corner_count(self) -> int:
        return len(self.corners)


@dataclass(frozen=True)
class EngineContext:
    """Everything an engine needs from the orchestrator.

    Attributes
    ----------
    grid:
        The occupancy grid (the stored TIG) to search and commit on.
    config:
        The router's :class:`~repro.core.router.LevelBConfig`; engines
        read their tuning knobs (search caps, penalties) from it.
    evaluator:
        ``evaluator(net_id)`` builds a fresh
        :class:`~repro.core.cost.CornerCostEvaluator` carrying the
        net's cost-function extension terms.  Engines must create one
        per connection (the memo assumes a frozen grid).
    regions:
        ``regions(source, target)`` yields the escalating search
        regions, smallest first, whole grid (``None``) last.
    add_nodes:
        Search-effort callback; engines report nodes created/expanded
        so the orchestrator can aggregate them into the result.
    """

    grid: RoutingGrid
    config: object
    evaluator: Callable[[int], CornerCostEvaluator]
    regions: Callable[[GridTerminal, GridTerminal], Iterable[Region]]
    add_nodes: Callable[[int], None]


class ConnectionEngine(abc.ABC):
    """The search -> candidates -> select -> commit contract.

    An engine either returns a committed :class:`RoutedConnection` or
    ``None`` with the grid untouched.  Engines are stateless apart from
    construction-time tuning and may be shared across nets.
    """

    @abc.abstractmethod
    def route(
        self,
        ctx: EngineContext,
        net_id: int,
        source: GridTerminal,
        target: GridTerminal,
        regions: Iterable[Region] | None = None,
    ) -> RoutedConnection | None:
        """Route and commit one connection, or return ``None``.

        ``regions`` overrides the context's escalation schedule (the
        rescue path passes ``(None,)`` for a single whole-grid shot).
        """


# ----------------------------------------------------------------------
# The MBFS / Path Selection Tree engine (paper sections 3.1-3.2)
# ----------------------------------------------------------------------
class MBFSEngine(ConnectionEngine):
    """Minimum-corner routing via MBFS + PST backtracking selection."""

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
        cfg = ctx.config
        evaluator = ctx.evaluator(net_id)
        if regions is None:
            regions = ctx.regions(source, target)
        for attempt, region in enumerate(regions):
            if attempt:
                instrument.count(REGION_EXPANSIONS)
            search = MBFSearch(
                grid,
                net_id,
                source,
                target,
                region=region,
                max_depth=cfg.max_depth,
                max_nodes=cfg.max_nodes_per_search,
                max_entries_per_track=cfg.max_entries_per_track,
            )
            outcome = search.run()
            ctx.add_nodes(outcome.nodes_created)
            if not outcome.found:
                continue
            cands = candidate_paths(outcome, grid)
            best, cost = select_best_path(cands, evaluator)
            if best is None:
                continue
            with grid.transaction():
                grid.commit_path(net_id, best.points, best.corners)
            return RoutedConnection(
                source=source,
                target=target,
                path=Path.from_points(best.points)
                if len(best.points) >= 2
                else Path.from_points([best.points[0], best.points[0]]),
                corners=best.corners,
                cost=cost,
                expansions_used=attempt,
            )
        return None


def path_length(points: Iterable[Point]) -> int:
    """Manhattan length of a waypoint sequence (engine helper)."""
    pts = list(points)
    return sum(a.manhattan_to(b) for a, b in zip(pts, pts[1:]))
