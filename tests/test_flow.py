"""Tests for the end-to-end flows on small designs."""

import pytest

from repro.bench_suite import random_design
from repro.flow import (
    FlowParams,
    multilayer_channel_flow,
    overcell_flow,
    percent_reduction,
    two_layer_flow,
)
from repro.partition import PartitionStrategy


@pytest.fixture(scope="module")
def small_design():
    return random_design("flowtest", seed=11, num_cells=8, num_nets=24, num_critical=3)


@pytest.fixture(scope="module")
def baseline(small_design):
    return two_layer_flow(small_design)


@pytest.fixture(scope="module")
def overcell(small_design):
    return overcell_flow(small_design)


class TestTwoLayerFlow:
    def test_completes(self, baseline):
        assert baseline.completion == 1.0
        assert baseline.layout_area > 0
        assert baseline.wire_length > 0
        assert baseline.via_count > 0

    def test_channel_routes_validated(self, baseline):
        # Pipeline already calls check(); re-verify here explicitly.
        for spec, route in zip(
            baseline.global_route.specs, baseline.channel_routes
        ):
            route.check(spec.problem)

    def test_geometry_consistent(self, baseline, small_design):
        assert small_design.is_placed
        for cell in small_design.cells.values():
            assert baseline.bounds.contains_rect(cell.bounds)

    def test_channel_tracks_recorded(self, baseline):
        assert len(baseline.channel_tracks) == baseline.placement.channel_count
        assert any(t > 0 for t in baseline.channel_tracks)


class TestOvercellFlow:
    def test_completes(self, overcell):
        assert overcell.completion == 1.0
        assert overcell.levelb is not None

    def test_partition_notes(self, overcell, small_design):
        crit = sum(1 for n in small_design.nets.values() if n.is_critical)
        assert overcell.notes["level_a_nets"] == crit
        assert overcell.notes["level_b_nets"] == len(small_design.nets) - crit

    def test_levelb_pins_inside_bounds(self, overcell):
        grid = overcell.levelb.tig.grid
        assert grid.vtracks.span.hi <= overcell.bounds.x2
        assert grid.htracks.span.hi <= overcell.bounds.y2

    def test_paper_claims_hold(self, baseline, overcell):
        """Table 2's shape: the over-cell flow reduces all three metrics."""
        assert overcell.layout_area < baseline.layout_area
        assert overcell.wire_length < baseline.wire_length
        assert overcell.via_count < baseline.via_count

    def test_channels_shrink(self, baseline, overcell):
        assert sum(overcell.channel_heights) < sum(baseline.channel_heights)

    def test_all_b_partition(self, small_design):
        params = FlowParams(partition=PartitionStrategy.ALL_B)
        result = overcell_flow(small_design, params)
        assert result.notes["level_a_nets"] == 0
        assert result.completion == 1.0
        # Without channel nets every channel keeps minimum clearance.
        assert all(h == 8 for h in result.channel_heights)

    def test_long_to_b_partition(self, small_design):
        params = FlowParams(
            partition=PartitionStrategy.LONG_TO_B, length_threshold=100
        )
        result = overcell_flow(small_design, params)
        assert result.completion == 1.0
        assert result.notes["level_a_nets"] > 0


class TestMultilayerChannelFlow:
    def test_optimistic_model(self, small_design, baseline):
        ml = multilayer_channel_flow(small_design)
        assert ml.layout_area < baseline.layout_area
        assert "optimistic" in ml.flow

    def test_optimistic_halves_channel_heights(self, small_design, baseline):
        ml = multilayer_channel_flow(small_design)
        for half, full in zip(ml.channel_heights, baseline.channel_heights):
            assert half <= (full + 1) // 2 + 1

    def test_design_rule_aware_larger_than_optimistic(self, small_design):
        opt = multilayer_channel_flow(small_design)
        dra = multilayer_channel_flow(small_design, design_rule_aware=True)
        # The paper's argument: with real design rules the saving shrinks.
        assert dra.layout_area >= opt.layout_area

    def test_table3_shape(self, small_design):
        """Over-cell beats even the optimistic 4-layer channel model."""
        ml = multilayer_channel_flow(small_design)
        oc = overcell_flow(small_design)
        assert oc.layout_area < ml.layout_area

    def test_custom_area_factor(self, small_design, baseline):
        params = FlowParams(channel_area_factor=0.75)
        ml = multilayer_channel_flow(small_design, params)
        ml50 = multilayer_channel_flow(small_design)
        assert ml.layout_area >= ml50.layout_area


class TestHelpers:
    def test_percent_reduction(self):
        assert percent_reduction(200, 100) == 50.0
        assert percent_reduction(0, 100) == 0.0
        assert percent_reduction(100, 120) == pytest.approx(-20.0)

    def test_summary_strings(self, baseline, overcell):
        assert "area=" in baseline.summary()
        assert overcell.design in overcell.summary()

    def test_flows_deterministic(self, small_design):
        a = overcell_flow(small_design)
        b = overcell_flow(small_design)
        assert a.layout_area == b.layout_area
        assert a.wire_length == b.wire_length
        assert a.via_count == b.via_count


class TestChannelRouterChoice:
    def test_left_edge_flow_completes(self, small_design):
        params = FlowParams(channel_router="left-edge")
        result = two_layer_flow(small_design, params)
        assert result.completion == 1.0
        for spec, route in zip(result.global_route.specs, result.channel_routes):
            route.check(spec.problem)

    def test_unknown_router_rejected(self, small_design):
        with pytest.raises(ValueError, match="channel router"):
            two_layer_flow(small_design, FlowParams(channel_router="magic"))

    def test_router_choice_changes_nothing_fundamental(self, small_design, baseline):
        lea = two_layer_flow(small_design, FlowParams(channel_router="left-edge"))
        # Same decomposition, possibly different track counts.
        assert len(lea.channel_tracks) == len(baseline.channel_tracks)
        assert lea.completion == baseline.completion == 1.0


# Every scalar FlowParams field with values the boundary must refuse: a
# wrong type, a bool where an integer belongs, an out-of-range value,
# or a name no registry knows.
_BAD_FLOW_PARAMS = [
    ("channel_router", "magic"),
    ("channel_router", 1),
    ("margin", -5),
    ("margin", 2.5),
    ("margin", True),
    ("aspect", 0.0),
    ("aspect", -1.0),
    ("aspect", float("nan")),
    ("aspect", "wide"),
    ("aspect", True),
    ("partition", "critical"),
    ("length_threshold", -1),
    ("length_threshold", True),
    ("length_threshold", 3.0),
    ("channel_area_factor", 0),
    ("channel_area_factor", float("inf")),
    ("checked", 1),
    ("checked", "yes"),
    ("parallel", -1),
    ("parallel", True),
    ("parallel", 2.0),
    ("parallel_mode", "fork"),
    ("parallel_mode", None),
    ("planes", 0),
    ("planes", -2),
    ("planes", True),
    ("planes", "2"),
    ("backend", "ramdisk"),
    ("backend", None),
    ("hierarchical", 1),
    ("iterate", "yes"),
    ("iterate", 0),
    ("max_iterations", -3),
    ("max_iterations", False),
    ("ordering_policy", "nope"),
    ("ordering_policy", 3),
    ("objective", "fastest"),
    ("objective", True),
]


class TestFlowParamsBoundary:
    @pytest.mark.parametrize(
        "field_name, value",
        _BAD_FLOW_PARAMS,
        ids=[f"{name}={value!r}" for name, value in _BAD_FLOW_PARAMS],
    )
    def test_bad_value_names_the_field(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            FlowParams(**{field_name: value})

    def test_every_scalar_field_is_covered(self):
        import dataclasses

        composite = {"technology", "levelb", "obstacles"}
        scalars = {f.name for f in dataclasses.fields(FlowParams)} - composite
        assert scalars == {name for name, _ in _BAD_FLOW_PARAMS}

    def test_defaults_and_registered_names_accepted(self):
        FlowParams()
        FlowParams(
            channel_router="left-edge",
            margin=0,
            aspect=2,
            length_threshold=0,
            parallel=4,
            parallel_mode="serial",
            planes=3,
            backend="sparse",
            max_iterations=0,
            ordering_policy="congestion",
            objective="vias",
        )
