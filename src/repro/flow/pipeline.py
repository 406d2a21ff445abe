"""The three end-to-end flows.

All flows share one pipeline skeleton: shelf placement -> global
channel decomposition -> detailed (greedy) channel routing -> channel
heights -> realised geometry -> metrics.  The over-cell flow sends only
set A through that skeleton and routes set B with the level B router on
the realised layout; the multi-layer channel flow rescales the baseline
channel geometry per the paper's Table 3 assumptions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

from repro import instrument
from repro.instrument.names import (
    CHANNELS_ROUTED,
    LEFT_EDGE_FALLBACKS,
    MEM_PEAK_RSS_BYTES,
    SPAN_CHANNEL_ROUTING,
    SPAN_FLOW_ML_CHANNEL,
    SPAN_FLOW_OVERCELL,
    SPAN_FLOW_PROBE,
    SPAN_FLOW_TWO_LAYER,
    SPAN_GLOBAL_ROUTE,
    SPAN_PLACEMENT,
)
from repro.bench_suite import SUITES
from repro.channels import (
    ChannelRoute,
    ChannelRoutingError,
    GreedyChannelRouter,
    LeftEdgeRouter,
)
from repro.core import LevelBRouter
from repro.flow.metrics import FlowResult
from repro.flow.params import FlowParams
from repro.geometry import Rect
from repro.globalroute import GlobalRoute, GlobalRouter
from repro.io import design_from_dict, load_design
from repro.netlist import Design, Net
from repro.partition import PartitionStrategy, partition_nets
from repro.placement import RowPlacement
from repro.technology import ensure_overcell_planes


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------
def _assign_net_ids(nets: Sequence[Net]) -> dict[Net, int]:
    return {net: i + 1 for i, net in enumerate(sorted(nets, key=lambda n: n.name))}


def _route_channels(
    global_route: GlobalRoute, channel_router: str = "greedy"
) -> list[ChannelRoute]:
    """Detailed-route every channel with the selected router.

    The left-edge router cannot handle vertical-constraint cycles;
    cyclic channels silently fall back to the greedy router so flows
    always complete.  :class:`FlowParams` validates ``channel_router``.
    """
    greedy = GreedyChannelRouter()
    left_edge = LeftEdgeRouter() if channel_router == "left-edge" else None
    routes = []
    for spec in global_route.specs:
        route = None
        if left_edge is not None:
            try:
                route = left_edge.route(spec.problem)
            except ChannelRoutingError:
                instrument.count(LEFT_EDGE_FALLBACKS)
                route = None
        if route is None:
            route = greedy.route(spec.problem)
        route.check(spec.problem)
        routes.append(route)
    instrument.count(CHANNELS_ROUTED, len(routes))
    return routes


def _channel_heights(
    global_route: GlobalRoute, routes: Sequence[ChannelRoute], pitch: int
) -> list[int]:
    """Per-channel height; empty channels keep one pitch of clearance."""
    heights = []
    for spec, route in zip(global_route.specs, routes):
        if route.tracks == 0 and not route.jogs:
            heights.append(pitch)
        else:
            heights.append(route.height(pitch))
    return heights


def _level_a_wire_and_vias(
    global_route: GlobalRoute,
    routes: Sequence[ChannelRoute],
    placement: RowPlacement,
    heights: Sequence[int],
    side_widths: tuple[int, int],
    pitch: int,
) -> tuple[int, int]:
    wire = sum(r.wire_length(pitch, pitch) for r in routes)
    row_heights = [row.height for row in placement.rows]
    wire += global_route.side_wire_length(row_heights, heights)
    # Horizontal stubs reaching into the side channels: charge half the
    # side-channel width per exit.
    for use in global_route.side_uses.values():
        width = side_widths[0] if use.side == "L" else side_widths[1]
        wire += len(use.exits) * (width // 2)
    vias = sum(r.via_count() for r in routes)
    return wire, vias


def _run_channel_pipeline(
    design: Design,
    nets: Sequence[Net],
    params: FlowParams,
) -> tuple[RowPlacement, GlobalRoute, list[ChannelRoute], list[int], tuple[int, int]]:
    pitch = params.channel_pitch
    with instrument.span(SPAN_PLACEMENT):
        placement = RowPlacement.build(
            design, pitch=pitch, aspect=params.aspect
        )
    net_ids = _assign_net_ids(nets)
    with instrument.span(SPAN_GLOBAL_ROUTE):
        global_route = GlobalRouter(placement, pitch=pitch).route(
            nets, net_ids
        )
    with instrument.span(SPAN_CHANNEL_ROUTING):
        routes = _route_channels(global_route, params.channel_router)
    heights = _channel_heights(global_route, routes, pitch)
    side_widths = global_route.side_widths(placement.num_rows)
    return placement, global_route, routes, heights, side_widths


# ----------------------------------------------------------------------
# Flows
# ----------------------------------------------------------------------
def _maybe_check(result: FlowResult, params: FlowParams) -> FlowResult:
    """Run the independent checker over a finished flow if requested."""
    if params.checked:
        from repro.check import check_flow

        result.check_report = check_flow(result)
    return result


def _route_levelb(router: LevelBRouter, params: FlowParams):
    """Route level B; returns ``(result, iterate_report_or_None)``.

    Serial, through the dispatch layer, or — with ``params.iterate`` —
    under the negotiated-congestion loop, which re-drives whichever of
    the first two modes the params select for every pass.
    ``repro.dispatch`` and ``repro.iterate`` are imported lazily (same
    idiom as :func:`_maybe_check`): both sit *above* the flow layer in
    the dependency order, so module-level imports here would be
    cycles.  The dispatched result is bit-identical to
    ``router.route()`` (docs/PARALLELISM.md).
    """
    if params.parallel <= 0 and not params.hierarchical:
        route_fn = None  # iterate_levelb's serial default
        run = router.route
    else:
        from repro.dispatch import DispatchConfig, route_levelb

        if params.parallel <= 0:
            # Hierarchical without parallelism: the coarse pass still
            # drives wave planning, but waves execute in-line.
            config = DispatchConfig(workers=1, mode="serial", hierarchical=True)
        else:
            config = DispatchConfig(
                workers=params.parallel,
                mode=params.parallel_mode,
                hierarchical=params.hierarchical,
            )

        def route_fn(r: LevelBRouter, order: Sequence[Net] | None):
            return route_levelb(r, config, order=order)

        def run():
            return route_levelb(router, config)

    if not params.iterate:
        return run(), None
    from repro.iterate import IterateConfig, iterate_levelb

    iter_config = IterateConfig(
        max_iterations=params.max_iterations,
        policy=params.ordering_policy,
    )
    result, report = iterate_levelb(router, iter_config, route_fn=route_fn)
    return result, report


def _attach_profile(result: FlowResult) -> FlowResult:
    """Snapshot the active collector into ``result.profile`` if enabled.

    The snapshot reflects the collector's cumulative state at the time
    the flow finishes; with one flow per ``collecting()`` block that is
    exactly the flow's own profile.  Peak RSS is sampled here — once,
    at flow end — so every profiled flow carries the ``mem.*`` gauges
    docs/SCALING.md describes.
    """
    inst = instrument.active()
    if inst.enabled:
        inst.gauge(MEM_PEAK_RSS_BYTES, float(_peak_rss_bytes()))
        result.profile = instrument.snapshot(inst)
    return result


def _peak_rss_bytes() -> int:
    """Process peak resident set size in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise
    to bytes.  Returns 0 on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def two_layer_flow(design: Design, params: FlowParams | None = None) -> FlowResult:
    """The conventional baseline: every net channel-routed on m1/m2."""
    with instrument.span(SPAN_FLOW_TWO_LAYER):
        result = _two_layer_flow(design, params)
    return _attach_profile(result)


def _two_layer_flow(design: Design, params: FlowParams | None) -> FlowResult:
    params = params or FlowParams()
    nets = design.routable_nets()
    placement, global_route, routes, heights, side_widths = _run_channel_pipeline(
        design, nets, params
    )
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=params.margin,
    )
    wire, vias = _level_a_wire_and_vias(
        global_route, routes, placement, heights, side_widths, params.channel_pitch
    )
    result = FlowResult(
        flow="two-layer-channel",
        design=design.name,
        bounds=bounds,
        wire_length=wire,
        via_count=vias,
        channel_tracks=[r.tracks for r in routes],
        channel_heights=heights,
        side_widths=side_widths,
        placement=placement,
        global_route=global_route,
        channel_routes=routes,
    )
    return _maybe_check(result, params)


def overcell_flow(design: Design, params: FlowParams | None = None) -> FlowResult:
    """The paper's flow: set A in channels, set B over the cells."""
    with instrument.span(SPAN_FLOW_OVERCELL):
        result = _overcell_flow(design, params)
    return _attach_profile(result)


@dataclass
class _LevelBSetup:
    """The realised level A layout and the level B router built on it."""

    set_a: list[Net]
    set_b: list[Net]
    placement: RowPlacement
    global_route: GlobalRoute
    routes: list[ChannelRoute]
    heights: list[int]
    side_widths: tuple[int, int]
    bounds: Rect
    router: LevelBRouter


def _levelb_setup(design: Design, params: FlowParams, checked: bool) -> _LevelBSetup:
    """Partition, route set A in the channels, realise, build level B.

    ``checked`` turns on the router's checked mode (the routability
    probe never does).
    """
    nets = design.routable_nets()
    if params.partition is PartitionStrategy.LONG_TO_B:
        # Geometric partitioning needs provisional pin positions.
        pitch = params.channel_pitch
        provisional = RowPlacement.build(design, pitch=pitch, aspect=params.aspect)
        provisional.realize([pitch] * provisional.channel_count, margin=params.margin)
    set_a, set_b = partition_nets(
        nets, params.partition, length_threshold=params.length_threshold
    )
    placement, global_route, routes, heights, side_widths = _run_channel_pipeline(
        design, set_a, params
    )
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=params.margin,
    )
    # A technology too short for the requested plane count is extended
    # with extrapolated reserved pairs (docs/LAYERS.md).
    technology = params.technology
    if params.planes > 1:
        technology = ensure_overcell_planes(technology, params.planes)
    router = LevelBRouter(
        bounds,
        set_b,
        technology=technology,
        obstacles=params.obstacles,
        config=params.levelb,
        planes=params.planes,
        backend=params.backend,
        objective=params.objective,
        checked=checked,
    )
    return _LevelBSetup(
        set_a, set_b, placement, global_route, routes, heights, side_widths,
        bounds, router,
    )


def _overcell_flow(design: Design, params: FlowParams | None) -> FlowResult:
    params = params or FlowParams()
    setup = _levelb_setup(design, params, checked=params.checked)
    set_a, set_b, routes = setup.set_a, setup.set_b, setup.routes
    wire_a, vias_a = _level_a_wire_and_vias(
        setup.global_route, routes, setup.placement, setup.heights,
        setup.side_widths, params.channel_pitch,
    )
    planes = setup.router.planes
    levelb, iterate_report = _route_levelb(setup.router, params)
    result = FlowResult(
        flow="overcell-4layer" if planes == 1 else f"overcell-{2 + 2 * planes}layer",
        design=design.name,
        bounds=setup.bounds,
        wire_length=wire_a + levelb.total_wire_length,
        via_count=vias_a + levelb.total_vias,
        channel_tracks=[r.tracks for r in routes],
        channel_heights=setup.heights,
        side_widths=setup.side_widths,
        completion=levelb.completion_rate,
        placement=setup.placement,
        global_route=setup.global_route,
        channel_routes=routes,
        levelb=levelb,
    )
    pins_b = sum(n.degree for n in set_b)
    result.notes.update(
        level_a_nets=len(set_a),
        level_b_nets=len(set_b),
        # Partition by name: the checker's layer-assignment rule
        # (inv.layer) verifies the level B result against these.
        level_a_net_names=sorted(n.name for n in set_a),
        level_b_net_names=sorted(n.name for n in set_b if n.degree >= 2),
        level_a_avg_pins=(
            sum(n.degree for n in set_a) / len(set_a) if set_a else 0.0
        ),
        level_b_pins=pins_b,
        level_a_wire=wire_a,
        level_b_wire=levelb.total_wire_length,
        objective=setup.router.objective,
        # Per-net via breakdown (corner vias + terminal stacks), the
        # quantity objective="vias" minimizes; summed in
        # ``level_b_vias`` for quick comparison across objectives.
        level_b_vias=levelb.total_vias,
        level_b_net_vias={r.net.name: r.via_count for r in levelb.routed},
    )
    if iterate_report is not None:
        result.notes["iterate"] = iterate_report.to_dict()
    return _maybe_check(result, params)


@dataclass
class RoutabilityProbe:
    """Outcome of a what-if level B routability assessment.

    Produced by :func:`routability_probe`.  The probe routes set B over
    the realised level A layout inside one grid transaction and rolls
    everything back, so it reports expected completion and wiring
    figures without committing anything.
    """

    design: str
    level_a_nets: int
    level_b_nets: int
    completion: float
    failed_nets: list[str] = field(default_factory=list)
    level_b_wire: int = 0
    level_b_corners: int = 0
    ripups: int = 0
    grid_restored: bool = True
    #: Coarse region-model occupancy profile (arXiv 1810.12789; see
    #: docs/SCALING.md).  ``regions`` counts tiles of the level B
    #: grid; ``regions_overflowed`` those whose projected demand
    #: exceeds geometric capacity — an early congestion signal that
    #: needs no routing at all.
    regions: int = 0
    regions_occupied: int = 0
    regions_overflowed: int = 0
    peak_region_utilization: float = 0.0

    @property
    def routable(self) -> bool:
        return self.completion >= 1.0


def routability_probe(
    design: Design, params: FlowParams | None = None
) -> RoutabilityProbe:
    """Early routability assessment for the over-cell flow.

    Runs the same partition + channel pipeline as :func:`overcell_flow`
    to realise the layout, then *probes* level B instead of routing it:
    the whole net loop executes inside a grid transaction that is
    rolled back (O(cells touched)), leaving the occupancy grid
    byte-identical to its pre-probe state.  Use it to vet a floorplan,
    partition threshold or obstacle set before committing to a full
    flow run.
    """
    params = params or FlowParams()
    with instrument.span(SPAN_FLOW_PROBE):
        setup = _levelb_setup(design, params, checked=False)
        router = setup.router
        before = router.tig.planes.snapshot()
        levelb = router.probe()
        restored = router.tig.planes.matches(before)
        region_model = _probe_regions(router)
    return RoutabilityProbe(
        design=design.name,
        level_a_nets=len(setup.set_a),
        level_b_nets=len(setup.set_b),
        completion=levelb.completion_rate,
        failed_nets=[r.net.name for r in levelb.routed if not r.complete],
        level_b_wire=levelb.total_wire_length,
        level_b_corners=levelb.total_corners,
        ripups=levelb.ripups,
        grid_restored=restored,
        regions=region_model.num_regions,
        regions_occupied=len(region_model.occupied_regions()),
        regions_overflowed=len(region_model.overflowed_regions()),
        peak_region_utilization=region_model.peak_utilization(),
    )


def _probe_regions(router: LevelBRouter):
    """The coarse region model over a probe's level B instance.

    Windows are the registered terminal bounding boxes — no search
    halo, no routing: this is the floorplan-level demand projection of
    arXiv 1810.12789, cheap enough to annotate every probe.
    """
    from repro.globalroute import RegionModel

    tig = router.tig
    windows = {}
    for net_id, terminals in tig.all_terminals().items():
        if not terminals:
            continue
        windows[net_id] = (
            min(t.v_idx for t in terminals),
            max(t.v_idx for t in terminals),
            min(t.h_idx for t in terminals),
            max(t.h_idx for t in terminals),
        )
    return RegionModel.build(
        tig.grid.num_vtracks, tig.grid.num_htracks, windows
    )


def multilayer_channel_flow(
    design: Design,
    params: FlowParams | None = None,
    *,
    design_rule_aware: bool = False,
    model: str | None = None,
) -> FlowResult:
    """Table 3's comparison: a multi-layer *channel* router.

    Three models, selected by ``model``:

    ``"optimistic"`` (default)
        The paper's assumption - channel areas (between-row heights
        and side-channel widths) shrink by
        ``params.channel_area_factor`` (0.5) relative to the
        two-layer result.
    ``"design-rule"``
        Halve the track counts but re-space tracks at the coarser
        upper-layer pitch - the paper's argument for why 50 % fewer
        tracks is not 50 % less area.  (``design_rule_aware=True`` is
        the legacy spelling.)
    ``"hvh"``
        Actually route each channel with the
        :class:`~repro.channels.HVHChannelRouter` (three layers by
        adjacent-track pairing) and space the resulting physical rows
        at the upper-layer pitch.
    """
    with instrument.span(SPAN_FLOW_ML_CHANNEL):
        result = _multilayer_channel_flow(
            design, params, design_rule_aware=design_rule_aware, model=model
        )
    return _attach_profile(result)


def _multilayer_channel_flow(
    design: Design,
    params: FlowParams | None,
    *,
    design_rule_aware: bool,
    model: str | None,
) -> FlowResult:
    params = params or FlowParams()
    if model is None:
        model = "design-rule" if design_rule_aware else "optimistic"
    if model not in ("optimistic", "design-rule", "hvh"):
        raise ValueError(f"unknown multilayer channel model {model!r}")
    nets = design.routable_nets()
    placement, global_route, routes, heights, side_widths = _run_channel_pipeline(
        design, nets, params
    )
    pitch = params.channel_pitch
    if model == "hvh":
        from repro.channels import HVHChannelRouter

        ml_pitch = max(layer.pitch for layer in params.technology.layers)
        hvh = HVHChannelRouter()
        hvh_results = [hvh.route(spec.problem) for spec in global_route.specs]
        routes = [r.route for r in hvh_results]
        heights = []
        for result in hvh_results:
            if result.route.tracks == 0 and not result.route.jogs:
                heights.append(min(pitch, ml_pitch))
            else:
                heights.append((result.route.tracks + 1) * ml_pitch)
        # Side-channel verticals gain a second vertical layer in a
        # four-layer process: halve the crossing count, coarser pitch.
        new_side = []
        for width in side_widths:
            crossings = max(0, width // pitch - 1)
            reduced = math.ceil(crossings / 2)
            new_side.append((reduced + 1) * ml_pitch if reduced else 0)
        side_widths = (new_side[0], new_side[1])
        flow_name = "4layer-channel-hvh"
    elif model == "design-rule":
        ml_pitch = max(layer.pitch for layer in params.technology.layers)
        new_heights = []
        for route, h in zip(routes, heights):
            if route.tracks == 0:
                new_heights.append(min(h, ml_pitch))
            else:
                tracks = math.ceil(route.tracks / 2)
                new_heights.append((tracks + 1) * ml_pitch)
        heights = new_heights
        new_side = []
        for width in side_widths:
            crossings = max(0, width // pitch - 1)
            reduced = math.ceil(crossings / 2)
            new_side.append((reduced + 1) * ml_pitch if reduced else 0)
        side_widths = (new_side[0], new_side[1])
        flow_name = "4layer-channel-design-rule"
    else:
        factor = params.channel_area_factor
        heights = [max(1, math.ceil(h * factor)) for h in heights]
        side_widths = (
            math.ceil(side_widths[0] * factor),
            math.ceil(side_widths[1] * factor),
        )
        flow_name = "4layer-channel-optimistic"
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=params.margin,
    )
    wire, vias = _level_a_wire_and_vias(
        global_route, routes, placement, heights, side_widths, pitch
    )
    result = FlowResult(
        flow=flow_name,
        design=design.name,
        bounds=bounds,
        wire_length=wire,
        via_count=vias,
        channel_tracks=[r.tracks for r in routes],
        channel_heights=heights,
        side_widths=side_widths,
        placement=placement,
        global_route=global_route,
        channel_routes=routes,
    )
    result.notes["model"] = {
        "optimistic": f"optimistic {params.channel_area_factor:.0%} "
        "channel-area scale",
        "design-rule": "design-rule-aware track halving",
        "hvh": "real HVH three-layer channel routing",
    }[model]
    return _maybe_check(result, params)


# ----------------------------------------------------------------------
# The front door shared by the CLI, the batch runner and the server
# ----------------------------------------------------------------------
#: Flow name -> flow function.
FLOWS: dict[str, Callable[[Design, FlowParams | None], FlowResult]] = {
    "two-layer": two_layer_flow,
    "overcell": overcell_flow,
    "ml-channel": multilayer_channel_flow,
}


def resolve_design(source: str | dict[str, Any], *, allow_path: bool = False) -> Design:
    """Materialise a design from a suite name, a document or a path.

    ``source`` is a suite name, an inline ``repro-design`` document or —
    only with ``allow_path`` — a design JSON path; the server never
    passes it, so a client cannot make it read a file.  Bad input
    raises :class:`ValueError`.
    """
    if isinstance(source, dict):
        try:
            return design_from_dict(source)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid design document: {exc}") from None
    if source in SUITES:
        return SUITES[source]()
    if allow_path:
        return load_design(source)
    raise ValueError(f"unknown suite {source!r} (available: {sorted(SUITES)})")


def result_summary(result: FlowResult) -> dict[str, Any]:
    """The flat JSON-safe summary of a finished flow.

    ``check_clean``/``check_violations`` appear when the result carries
    a verification report.
    """
    summary: dict[str, Any] = {
        "design": result.design,
        "flow": result.flow,
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "layout_area": result.layout_area,
    }
    if result.check_report is not None:
        summary["check_clean"] = not result.check_report.violations
        summary["check_violations"] = len(result.check_report.violations)
    return summary
