"""Tests for the ConnectionEngine protocol and parity.

The engine extraction must be behaviour-preserving: the MBFS engine
(and the Lee engine behind MazeRouter) must reproduce the seed
implementation's routing outputs exactly.  The reference numbers below
were recorded from the pre-refactor router on the same designs.
"""

import math
import subprocess
import sys

import pytest

from repro.geometry import Rect
from repro.core import (
    LevelBConfig,
    LevelBResult,
    LevelBRouter,
)

from conftest import make_toy_design


def toy_router(**cfg_kwargs):
    design = make_toy_design()
    config = LevelBConfig(**cfg_kwargs) if cfg_kwargs else None
    return LevelBRouter(
        Rect(0, 0, 256, 256), list(design.nets.values()), config=config
    )


class TestRegistry:
    def test_core_router_does_not_import_maze(self):
        """The old router -> maze cycle-guard import must stay gone."""
        code = (
            "import sys; import repro.core.router; "
            "sys.exit(1 if any(m.startswith('repro.maze') "
            "for m in sys.modules) else 0)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": "src"}
        )
        assert proc.returncode == 0


class TestSeedParity:
    """Routing outputs identical to the pre-refactor implementation."""

    def test_toy_mbfs_parity(self):
        result = toy_router().route()
        assert result.total_wire_length == 1340
        assert result.total_corners == 14
        assert result.nets_completed == result.nets_attempted == 6
        assert result.ripups == 0

    def test_toy_maze_parity(self):
        from repro.maze import MazeRouter

        design = make_toy_design()
        result = MazeRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        ).route()
        assert result.total_wire_length == 1340
        assert result.total_corners == 14

    def _dense(self, **cfg_kwargs):
        from repro.bench_suite import random_design
        from repro.placement import RowPlacement

        design = random_design(
            "refine", seed=4, num_cells=10, num_nets=36, num_critical=0
        )
        pl = RowPlacement.build(design, pitch=8)
        pl.realize([16] * pl.channel_count, margin=16)
        bounds = design.cell_bounds().expanded(24)
        return LevelBRouter(
            bounds,
            list(design.nets.values()),
            config=LevelBConfig(**cfg_kwargs),
        ).route()

    def test_dense_parity_with_ripups(self):
        result = self._dense()
        assert result.total_wire_length == 12088
        assert result.total_corners == 115
        assert result.nets_completed == result.nets_attempted == 36
        assert result.ripups == 3

    def test_dense_parity_refined(self):
        result = self._dense(refinement_passes=1)
        assert result.total_wire_length == 11992
        assert result.total_corners == 115

    def test_dense_parity_no_fallback(self):
        result = self._dense(maze_fallback=False)
        assert result.total_wire_length == 12088
        assert result.total_corners == 115


class TestConnectionCosts:
    def test_no_nan_costs_anywhere(self):
        """Rescued connections used to record cost=NaN, poisoning sums."""
        result = self._route_dense()
        total = 0.0
        for routed in result.routed:
            for conn in routed.connections:
                assert math.isfinite(conn.cost)
                assert conn.cost >= 0.0
                total += conn.cost
        assert math.isfinite(total)

    def test_maze_router_costs_use_cost_model(self):
        """Lee engine prices paths with CornerCostEvaluator, not a raw
        corner count, so costs are on the MBFS scale."""
        from repro.maze import MazeRouter

        design = make_toy_design()
        result = MazeRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        ).route()
        for routed in result.routed:
            for conn in routed.connections:
                assert math.isfinite(conn.cost)
                # w1 * wire_length alone already exceeds a bare corner
                # count on any real connection.
                if conn.wire_length > 0:
                    assert conn.cost >= conn.corner_count

    def _route_dense(self):
        from repro.bench_suite import random_design
        from repro.placement import RowPlacement

        design = random_design(
            "refine", seed=4, num_cells=10, num_nets=36, num_critical=0
        )
        pl = RowPlacement.build(design, pitch=8)
        pl.realize([16] * pl.channel_count, margin=16)
        bounds = design.cell_bounds().expanded(24)
        return LevelBRouter(bounds, list(design.nets.values())).route()


class TestNetNameIndex:
    def test_net_result_lookup(self):
        result = toy_router().route()
        name = result.routed[0].net.name
        assert result.net_result(name) is result.routed[0]

    def test_net_result_missing_raises(self):
        result = toy_router().route()
        with pytest.raises(KeyError, match="nope"):
            result.net_result("nope")

    def test_duplicate_net_names_rejected_at_construction(self):
        import copy

        design = make_toy_design()
        nets = list(design.nets.values())
        dupe = copy.copy(nets[0])
        dupe.name = nets[1].name
        with pytest.raises(ValueError, match="duplicate net name"):
            LevelBRouter(Rect(0, 0, 256, 256), [dupe, *nets[1:]])

    def test_duplicate_names_rejected_in_result(self):
        result = toy_router().route()
        first = result.routed[0]
        with pytest.raises(ValueError, match="duplicate net name"):
            LevelBResult(
                tig=result.tig,
                routed=[first, first],
                elapsed_s=0.0,
                nodes_created=0,
            )
