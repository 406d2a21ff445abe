"""The level B router: serial over-cell routing on the reserved planes.

The paper routes level B on the single metal3/metal4 pair; the router
generalizes that to N reserved-layer planes (the router's ``planes``
argument, default 1 — see docs/LAYERS.md), assigning each net to one plane up
front and then routing it entirely on that plane's grid.

Ties the pieces together exactly as section 3 describes:

1. define routing tracks over the whole layout and assign a pair of
   tracks to each net terminal;
2. order the nets (longest distance first by default);
3. for each two-terminal connection, hand the search/select/commit
   cycle to the :class:`~repro.core.engine.MBFSEngine` (the MBFS/PST
   search of sections 3.1-3.2, committing through the ``O(t)``
   occupancy update of section 3.4);
4. decompose multi-terminal nets with the Steiner-Prim builder,
   connecting each new terminal to the closest point (terminal or
   Steiner point) of the partially routed tree;
5. widen the search region and retry when a bounded search fails.

Speculative state changes - rip-up-and-reroute, refinement, routability
probes - run inside :class:`~repro.grid.GridTransaction` journals, so
undoing a decision costs time proportional to the cells it touched,
never a full-grid scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro import instrument
from repro.instrument.names import (
    CONNECTIONS_ROUTED,
    EVT_MAZE_FALLBACK,
    EVT_NET_FAILED,
    EVT_NET_ROUTED,
    EVT_RIPUP,
    LEVELB_UTILIZATION,
    MAZE_FALLBACKS,
    MEM_GRID_BYTES,
    MEM_GRID_DENSE_EQUIV_BYTES,
    NETS_FAILED,
    NETS_ROUTED,
    OCC_CELLS_TOUCHED,
    REGION_EXPANSIONS,
    RIPUPS,
    SPAN_LEVELB_NET,
    SPAN_LEVELB_REFINE,
    SPAN_LEVELB_ROUTE,
    SPAN_MAZE_RESCUE,
    TXN_COMMITS,
    TXN_ROLLBACKS,
    TXN_UNDO_CELLS,
)
from repro.geometry import Interval, Rect
from repro.netlist import Net
from repro.technology import Technology
from repro.core.assign import NetDemand, assign_planes
from repro.core.cost import CornerCostEvaluator, CostWeights, TrackHistory
from repro.core.engine import (
    ConnectionEngine,
    EngineContext,
    MBFSEngine,
    Region,
    RoutedConnection,
)
from repro.core.ordering import NetOrdering, order_nets
from repro.core.steiner import SteinerTreeBuilder, dedupe_terminals
from repro.core.tig import GridTerminal, TrackIntersectionGraph

if TYPE_CHECKING:
    from repro.grid import RoutingGrid


@dataclass(frozen=True)
class Obstacle:
    """An over-cell area excluded from level B routing.

    ``block_h`` / ``block_v`` select which layer of the pair the
    obstacle occupies: pre-existing metal4 straps block horizontal
    wiring only, metal3 blocks vertical only, and user-excluded areas
    over sensitive circuits block both (the paper's cross-talk case).
    """

    rect: Rect
    block_h: bool = True
    block_v: bool = True
    name: str = ""


@dataclass(frozen=True)
class LevelBConfig:
    """Tuning knobs for the level B router."""

    weights: CostWeights = field(default_factory=CostWeights.sparse)
    ordering: NetOrdering = NetOrdering.LONGEST_FIRST
    region_margin_tracks: int = 8
    region_growth: int = 4
    max_region_expansions: int = 2
    max_depth: int = 12
    max_nodes_per_search: int = 250_000
    max_entries_per_track: int = 8
    # The MBFS excludes paths with more than one corner per track, so
    # on congested grids a routable connection can be invisible to it
    # (the paper conditions 100% completion on the solution space).
    # The fallback re-tries failed connections with the Lee/Dijkstra
    # maze search over the whole grid before giving up.
    maze_fallback: bool = True
    maze_via_penalty: float = 10.0
    # Bounded rip-up-and-reroute: when a net stays unroutable even via
    # the maze fallback, up to ``max_ripups`` neighbouring nets are
    # ripped up and rerouted after it.  A completion aid beyond the
    # paper (whose experiments assume the solution space admits 100%
    # completion); set to 0 to disable.
    max_ripups: int = 24
    # Cross-talk control (paper section 3.2's extension hook): when any
    # net is marked ``is_sensitive`` the router adds a
    # ParallelRunPenalty so other nets avoid long parallel runs next to
    # it (and it next to them).  Set the weight to 0 to disable.
    parallel_run_weight: float = 20.0
    parallel_run_separation: int = 1
    # Post-routing refinement: after all nets route, each net is
    # ripped up and rerouted once per pass with full knowledge of the
    # others (serial routers over-constrain early nets).  Each net's
    # rip/reroute runs in a grid transaction; a reroute that does not
    # improve on the old wiring is rolled back in O(cells touched).
    refinement_passes: int = 0
    # Price of one extra via level in the terminal stacks of a net on
    # an upper over-cell plane (plane assignment and corner costs).
    plane_via_weight: float = 4.0


#: Level B routing objectives: the paper's wire-length-led cost, or
#: via minimization (docs/TECHNOLOGY.md).
OBJECTIVES = ("wire", "vias")

#: How much harder the "vias" objective leans on via prices than the
#: default plane/corner weighting.  The knee of a measured trade-off:
#: raising it keeps cutting vias but concentrates nets on plane 0
#: until completions start to fall on saturated designs (the wide
#: bench tier loses ~9% completion by 8.0); 4.0 takes most of the via
#: savings while staying well clear of that cliff.
VIA_OBJECTIVE_SCALE = 4.0


@dataclass
class RoutedNet:
    """All connections realised for one net."""

    net: Net
    net_id: int
    connections: list[RoutedConnection] = field(default_factory=list)
    failed_terminals: int = 0
    #: The over-cell plane the net routes on (0 = metal3/metal4).
    plane: int = 0

    @property
    def complete(self) -> bool:
        return self.failed_terminals == 0

    @property
    def wire_length(self) -> int:
        return sum(c.wire_length for c in self.connections)

    @property
    def corner_count(self) -> int:
        return sum(c.corner_count for c in self.connections)

    @property
    def via_count(self) -> int:
        """Corner vias plus this net's terminal via stacks.

        The per-net share of :attr:`LevelBResult.total_vias`: each
        connected pin's stack climbs ``1 + 2 * plane`` via levels.
        """
        stacks = (self.net.degree - self.failed_terminals) * (1 + 2 * self.plane)
        return self.corner_count + stacks


@dataclass
class LevelBResult:
    """Aggregate outcome of a level B routing run."""

    tig: TrackIntersectionGraph
    routed: list[RoutedNet]
    elapsed_s: float
    nodes_created: int
    ripups: int = 0
    # Inputs the independent checker (repro.check) needs verbatim: the
    # layout rectangle and the declared exclusions.  Carried on the
    # result so verification never reverse-engineers them from
    # occupancy state.
    bounds: Rect | None = None
    obstacles: tuple[Obstacle, ...] = ()
    #: The technology the run routed under.  Carried so the independent
    #: checker (repro.check) can enforce its width-dependent spacing
    #: and min-width rules against the extracted geometry.
    technology: Technology | None = None

    def __post_init__(self) -> None:
        # Name index for O(1) net_result lookups.  Net names are
        # guaranteed unique by LevelBRouter; a direct construction with
        # duplicates fails loudly here instead of shadowing a result.
        index: dict[str, RoutedNet] = {}
        for r in self.routed:
            if r.net.name in index:
                raise ValueError(f"duplicate net name {r.net.name!r} in result")
            index[r.net.name] = r
        self._by_name = index

    @property
    def total_wire_length(self) -> int:
        return sum(r.wire_length for r in self.routed)

    @property
    def total_corners(self) -> int:
        return sum(r.corner_count for r in self.routed)

    @property
    def num_planes(self) -> int:
        """Over-cell planes the run routed on."""
        return self.tig.planes.num_planes

    @property
    def total_vias(self) -> int:
        """Corner vias plus the terminal via stacks of connected pins.

        A pin of a plane-0 net costs one stack via (m2 up to the
        plane); every plane of extra altitude adds two more via levels
        to each of the net's stacks, so a plane-``p`` pin contributes
        ``1 + 2p``.  On a single-plane run this reduces to the paper's
        count: corners + one stack per connected pin.
        """
        stacks = sum(
            (r.net.degree - r.failed_terminals) * (1 + 2 * r.plane)
            for r in self.routed
        )
        return self.total_corners + stacks

    def nets_on_plane(self, plane: int) -> list[RoutedNet]:
        """Routed nets assigned to one over-cell plane."""
        return [r for r in self.routed if r.plane == plane]

    @property
    def nets_attempted(self) -> int:
        return len(self.routed)

    @property
    def nets_completed(self) -> int:
        return sum(1 for r in self.routed if r.complete)

    @property
    def completion_rate(self) -> float:
        if not self.routed:
            return 1.0
        return self.nets_completed / len(self.routed)

    def net_result(self, name: str) -> RoutedNet:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"net {name!r} was not routed at level B") from None


class NetSpeculator(Protocol):
    """What :meth:`LevelBRouter.route` needs from a parallel speculator.

    Implemented by :class:`repro.dispatch.WaveSpeculator`.  The router
    stays in charge of net order, rip-up and refinement; the speculator
    merely gets the first shot at each net as it reaches the head of
    the queue.  Returning ``None`` from :meth:`take` means "no valid
    speculation — route this net serially", which is always safe.
    """

    def begin(self, ordered: Sequence[Net]) -> None:
        """Called once with the canonical routing order."""

    def take(self, net: Net) -> RoutedNet | None:
        """A committed result for ``net``, or ``None`` to route serially."""


def coupling_terms(
    net_id: int, sensitive_ids: frozenset[int], config: LevelBConfig
) -> tuple:
    """Cost-function extension terms for one net's connections.

    A sensitive net keeps clear of *all* foreign wiring; every other
    net keeps clear of the sensitive nets.  A free function so the
    speculative workers of :mod:`repro.dispatch` build the exact terms
    the serial router would.
    """
    if not sensitive_ids or config.parallel_run_weight <= 0:
        return ()
    from repro.core.coupling import ParallelRunPenalty

    if net_id in sensitive_ids:
        targets = None  # avoid everyone
    else:
        targets = sensitive_ids - {net_id}
    return (
        ParallelRunPenalty(
            targets,
            weight=config.parallel_run_weight,
            separation=config.parallel_run_separation,
            exclude=net_id,
        ),
    )


def route_net_terminals(
    grid: "RoutingGrid",
    net_id: int,
    terminals: Sequence[GridTerminal],
    connect: Callable[[GridTerminal, GridTerminal], RoutedConnection | None],
) -> tuple[list[RoutedConnection], int]:
    """Decompose one net into two-terminal connections and route them.

    The net-level logic shared by the serial router and the speculative
    workers of :mod:`repro.dispatch` — terminal de-duplication, the
    two-terminal fast path and the Steiner-Prim loop live here once, so
    a worker's decomposition is the serial decomposition by
    construction.  ``connect`` routes a single connection (engine choice
    and rescue policy stay with the caller).  Returns the committed
    connections and the count of terminals left unreached.
    """
    for t in terminals:
        grid.mark_terminal_routed(t.v_idx, t.h_idx)
    connections: list[RoutedConnection] = []
    failed = 0
    unique = dedupe_terminals(terminals)
    if len(unique) < 2:
        return connections, failed  # all pins coincide; nothing to wire
    if len(unique) == 2:
        conn = connect(unique[0], unique[1])
        if conn is None:
            failed += 1
        else:
            connections.append(conn)
        return connections, failed
    builder = SteinerTreeBuilder(grid, net_id, unique)
    while not builder.done:
        source = builder.next_source()
        conn = None
        for target in builder.attach_candidates(source):
            conn = connect(source, target)
            if conn is not None:
                break
        if conn is None:
            builder.fail(source)
            failed += 1
        else:
            builder.commit(source, conn.path.waypoints())
            connections.append(conn)
    return connections, failed


class LevelBRouter:
    """Routes a set of nets over the whole layout area.

    Parameters
    ----------
    bounds:
        The fixed layout rectangle (known after level A, section 2).
    nets:
        Set B nets; their pins must have placed positions.  Net names
        must be unique (results are indexed by name).
    technology:
        Supplies the over-cell plane stack (pitches, layer names);
        must carry at least ``planes`` reserved pairs above
        metal1/metal2.  Defaults to the paper's four-layer stack, or
        an extended preset when ``planes > 1``.
    obstacles:
        Over-cell exclusions (:class:`Obstacle` or bare :class:`Rect`).
    config:
        Router tuning; defaults follow the paper's sparse setting.
    planes:
        Over-cell routing planes (docs/LAYERS.md); ``1`` is the paper's
        metal3/metal4 pair.  More planes are shared out by the
        assignment pass (:mod:`repro.core.assign`).
    backend:
        Occupancy storage (:mod:`repro.grid.backend`); every backend
        commits bit-identical geometry (docs/SCALING.md).
    objective:
        ``"wire"`` (the paper's cost) or ``"vias"`` (via minimization,
        docs/TECHNOLOGY.md).
    checked:
        Sanitize every net commit and raise ``CheckFailure`` on the
        first violation (:mod:`repro.check`, docs/VERIFICATION.md).
    """

    def __init__(
        self,
        bounds: Rect,
        nets: Sequence[Net],
        *,
        technology: Technology | None = None,
        obstacles: Iterable[Obstacle | Rect] = (),
        config: LevelBConfig | None = None,
        planes: int = 1,
        backend: str = "dense",
        objective: str = "wire",
        checked: bool = False,
    ) -> None:
        self.bounds = bounds
        self.config = config or LevelBConfig()
        if planes < 1:
            raise ValueError(f"planes must be >= 1, got {planes}")
        if objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        self.planes = planes
        self.objective = objective
        self.checked = checked
        if objective == "vias":
            # The Lee rescue trades corners against length through
            # ``maze_via_penalty``; under via minimization every corner
            # is a via, so its price scales accordingly.  The replaced
            # config is what engines and dispatch workers see, keeping
            # serial and speculative pricing identical.
            self.config = replace(
                self.config,
                maze_via_penalty=(
                    self.config.maze_via_penalty * VIA_OBJECTIVE_SCALE
                ),
            )
        tech = technology or (
            Technology.four_layer()
            if planes == 1
            else Technology.with_overcell_planes(planes)
        )
        if tech.num_layers < 4:
            raise ValueError("level B routing needs a 4-layer technology")
        if tech.num_overcell_planes < planes:
            raise ValueError(
                f"level B routing on {planes} planes needs a "
                f"{2 + 2 * planes}-layer technology, "
                f"{tech.name} has {tech.num_layers}"
            )
        self.technology = tech
        #: The over-cell plane decomposition the run routes on.
        self.stack = tech.layer_stack()
        self.nets = [n for n in nets if n.degree >= 2]
        seen_names = set()
        for net in self.nets:
            if net.name in seen_names:
                raise ValueError(
                    f"duplicate net name {net.name!r}: level B results are "
                    "indexed by name, so names must be unique"
                )
            seen_names.add(net.name)
        terminal_points = [p for net in self.nets for p in net.pin_positions()]
        for p in terminal_points:
            if not bounds.contains_point(p):
                raise ValueError(f"terminal {p} outside layout bounds {bounds}")
        # All planes share the track lattice generated at plane 0's
        # (metal3/metal4) pitch; upper planes' coarser physical pitch
        # enters the area/delay models, not the grid (docs/LAYERS.md).
        self.tig = TrackIntersectionGraph.over_area(
            bounds,
            v_pitch=self.stack.plane(0).v_pitch,
            h_pitch=self.stack.plane(0).h_pitch,
            terminal_points=terminal_points,
            num_planes=planes,
            backend=backend,
        )
        self.obstacles: list[Obstacle] = []
        for obs in obstacles:
            if isinstance(obs, Rect):
                obs = Obstacle(rect=obs)
            self.obstacles.append(obs)
            self.tig.add_obstacle(
                obs.rect, block_h=obs.block_h, block_v=obs.block_v
            )
        self._net_ids: dict[Net, int] = {
            net: i + 1 for i, net in enumerate(sorted(self.nets, key=lambda n: n.name))
        }
        # Plane assignment is decided before any terminal is reserved:
        # the pass sees only pin geometry, so it is independent of net
        # registration order (and trivially all-plane-0 when planes=1).
        # Under objective="vias" the assignment's per-via-level price is
        # scaled up by the technology's actual via costs, pulling nets
        # toward shallow planes (fewer stack-via levels per pin).
        via_weight = self.config.plane_via_weight
        if objective == "vias":
            mean_via_cost = sum(v.cost for v in tech.vias) / len(tech.vias)
            via_weight *= VIA_OBJECTIVE_SCALE * mean_via_cost
        self._plane_assignment = assign_planes(
            [
                NetDemand(net_id, tuple(net.pin_positions()))
                for net, net_id in self._net_ids.items()
            ],
            bounds,
            planes,
            via_weight,
        )
        # Width-class footprints: each net's (span, guard) claim on its
        # assigned plane, (1, 0) for signal nets on every preset.
        self._footprints: dict[int, tuple[int, int]] = {
            net_id: tech.net_footprint(
                net.net_class, self._plane_assignment[net_id]
            )
            for net, net_id in self._net_ids.items()
        }
        for net, net_id in self._net_ids.items():
            self.tig.register_net(
                net_id,
                net.pin_positions(),
                self._plane_assignment[net_id],
                footprint=self._footprints[net_id],
            )
        self._nodes_created = 0
        self._sensitive_ids = frozenset(
            self._net_ids[n] for n in self.nets if n.is_sensitive
        )
        #: Negotiated-congestion history, one :class:`TrackHistory` per
        #: plane, attached by :mod:`repro.iterate` between iterations.
        #: ``None`` (the default) keeps every evaluator — and therefore
        #: every routed path — bit-identical to one-pass routing.
        self.history: tuple[TrackHistory, ...] | None = None
        self._engine: ConnectionEngine = self._primary_engine()
        self._rescue: ConnectionEngine | None = None
        # One engine context per plane, each bound to that plane's
        # occupancy grid; ``_ctx`` stays the plane-0 context because
        # the single-plane stack (and repro.dispatch's workers) use it
        # directly.
        self._ctxs = tuple(
            EngineContext(
                grid=self.tig.planes[plane],
                config=self.config,
                evaluator=self._evaluator_for,
                regions=self._regions,
                add_nodes=self._add_nodes,
            )
            for plane in range(planes)
        )
        self._ctx = self._ctxs[0]

    # ------------------------------------------------------------------
    # Engine wiring
    # ------------------------------------------------------------------
    def _primary_engine(self) -> ConnectionEngine:
        """The engine routing every connection."""
        return MBFSEngine()

    def _rescue_engine(self) -> ConnectionEngine:
        """The Lee engine behind ``maze_fallback``, built on first use.

        Imported here so the dependency arrow stays maze -> core.
        """
        if self._rescue is None:
            from repro.maze.lee import LeeEngine

            self._rescue = LeeEngine.from_config(self.config)
        return self._rescue

    def _add_nodes(self, n: int) -> None:
        self._nodes_created += n

    def _evaluator_for(self, net_id: int) -> CornerCostEvaluator:
        """A fresh cost evaluator carrying the net's extension terms.

        Bound to the net's own plane grid; on an upper plane the
        evaluator also carries the constant inter-plane via-stack
        surcharge (``base_cost``), zero on plane 0.
        """
        plane = self.tig.plane_of(net_id)
        base = (
            self.config.plane_via_weight * self.stack.via_depth(plane)
            if plane
            else 0.0
        )
        return CornerCostEvaluator(
            self.tig.grid_of(net_id),
            self.config.weights,
            extra_terms=self._extra_terms_for(net_id),
            base_cost=base,
            history=self.history[plane] if self.history is not None else None,
            width_tracks=self._footprints[net_id][0],
            corner_surcharge=self.corner_surcharge(net_id),
        )

    def footprint_of(self, net_id: int) -> tuple[int, int]:
        """The ``(span, guard)`` footprint of a registered net."""
        return self._footprints[net_id]

    def corner_surcharge(self, net_id: int) -> float:
        """Flat per-corner price of a net under the active objective.

        Zero under ``objective="wire"``; under ``"vias"`` each corner
        pays the technology's via cost on the net's plane, scaled by
        :data:`VIA_OBJECTIVE_SCALE`.  Constant per candidate corner, so
        the equal-corner MBFS ranking is untouched — the term steers
        engines that trade corners against length (the Lee rescue) and
        keeps reported costs comparable across objectives.
        """
        if self.objective != "vias":
            return 0.0
        plane = self.tig.plane_of(net_id)
        return VIA_OBJECTIVE_SCALE * self.technology.corner_via_cost(plane)

    def _ctx_for(self, net_id: int) -> EngineContext:
        """The engine context of a net's plane."""
        return self._ctxs[self.tig.plane_of(net_id)]

    def _extra_terms_for(self, net_id: int) -> tuple:
        return coupling_terms(net_id, self._sensitive_ids, self.config)

    # ------------------------------------------------------------------
    def net_id(self, net: Net) -> int:
        return self._net_ids[net]

    @property
    def sensitive_ids(self) -> frozenset[int]:
        """Ids of nets marked ``is_sensitive`` (cross-talk extension)."""
        return self._sensitive_ids

    def route(
        self,
        *,
        speculator: NetSpeculator | None = None,
        order: Sequence[Net] | None = None,
    ) -> LevelBResult:
        """Route every net in the configured order.

        ``order`` overrides the configured :class:`NetOrdering` with an
        explicit sequence (the iterative driver's ordering policies,
        docs/ITERATION.md).  It must be a permutation of this router's
        nets; ``None`` — always the case in one-pass mode — keeps the
        seed-identical ``order_nets`` path.

        Nets that fail outright trigger the bounded rip-up loop: the
        blockers crowding the failed terminals are unrouted, the failed
        net retries first, and the victims re-route after it.  The work
        queue is a deque with per-net generation counters, so pops,
        victim removals and requeues are all O(1).

        ``speculator`` (:class:`NetSpeculator`, see ``repro.dispatch``)
        gets the first shot at each net as it reaches the head of the
        queue; when it declines (returns ``None`` — stale speculation,
        window conflict, requeued net) the net routes serially right
        here, so every order-dependent decision is made exactly as in a
        serial run.

        The whole run executes inside a ``levelb.route`` instrumentation
        span; ``elapsed_s`` is the span's wall time (measured whether or
        not a collector is active).
        """
        # Journal-balance audits must tolerate an outer transaction
        # (probe() wraps this whole method in one).
        ambient_txn = self.tig.planes.in_transaction
        with instrument.span(SPAN_LEVELB_ROUTE) as route_span:
            # Declare the level B catalogue so exported profiles carry
            # these keys (at 0) even on runs where they never fire.
            instrument.active().declare(
                CONNECTIONS_ROUTED,
                MAZE_FALLBACKS,
                NETS_FAILED,
                NETS_ROUTED,
                OCC_CELLS_TOUCHED,
                REGION_EXPANSIONS,
                RIPUPS,
                TXN_COMMITS,
                TXN_ROLLBACKS,
                TXN_UNDO_CELLS,
            )
            if order is None:
                ordered = order_nets(self.nets, self.config.ordering)
            else:
                ordered = list(order)
                if len(ordered) != len(self.nets) or set(ordered) != set(
                    self.nets
                ):
                    raise ValueError(
                        "explicit route order must be a permutation of the "
                        "router's nets"
                    )
            if speculator is not None:
                speculator.begin(ordered)
            # Work queue: (net, generation) entries plus a live-generation
            # map.  Requeueing bumps a net's generation, so stale deque
            # entries are skipped on pop instead of removed in O(n).
            queue: deque[tuple[Net, int]] = deque((net, 0) for net in ordered)
            live: dict[Net, int] = {net: 0 for net in ordered}
            pushes: dict[Net, int] = {}
            results: dict[Net, RoutedNet] = {}
            ripups_left = self.config.max_ripups
            ripup_count = 0
            while queue:
                net, generation = queue.popleft()
                if live.get(net) != generation:
                    continue  # superseded by a rip-up requeue
                del live[net]
                outcome = speculator.take(net) if speculator is not None else None
                if outcome is None:
                    with instrument.span(SPAN_LEVELB_NET):
                        outcome = self._route_net(net)
                results[net] = outcome
                if self.checked:
                    self._sanitize(outcome, ambient_txn)
                if outcome.complete:
                    instrument.event(
                        EVT_NET_ROUTED,
                        net=net.name,
                        wire_length=outcome.wire_length,
                        corners=outcome.corner_count,
                    )
                    continue
                instrument.event(
                    EVT_NET_FAILED,
                    net=net.name,
                    failed_terminals=outcome.failed_terminals,
                )
                if ripups_left <= 0:
                    continue
                victims = self._pick_ripup_victims(net, results)
                if not victims:
                    continue
                ripups_left -= len(victims)
                ripup_count += len(victims)
                instrument.count(RIPUPS, len(victims))
                instrument.event(
                    EVT_RIPUP,
                    net=net.name,
                    victims=[v.name for v in victims],
                )
                self._unroute_net(net)
                results.pop(net)
                for victim in victims:
                    self._unroute_net(victim)
                    results.pop(victim, None)
                for requeued in reversed([net, *victims]):
                    token = pushes.get(requeued, 0) + 1
                    pushes[requeued] = token
                    live[requeued] = token
                    queue.appendleft((requeued, token))
            for _ in range(self.config.refinement_passes):
                with instrument.span(SPAN_LEVELB_REFINE):
                    self._refine(results, ambient_txn)
            routed = [results[net] for net in self.nets if net in results]
            inst = instrument.active()
            if inst.enabled:
                inst.count(NETS_ROUTED, sum(1 for r in routed if r.complete))
                inst.count(NETS_FAILED, sum(1 for r in routed if not r.complete))
                inst.gauge(LEVELB_UTILIZATION, self.tig.planes.utilization())
                inst.gauge(
                    MEM_GRID_BYTES, float(self.tig.planes.memory_bytes())
                )
                inst.gauge(
                    MEM_GRID_DENSE_EQUIV_BYTES,
                    float(self.tig.planes.dense_equiv_bytes()),
                )
        return LevelBResult(
            tig=self.tig,
            routed=routed,
            elapsed_s=route_span.elapsed_s,
            nodes_created=self._nodes_created,
            ripups=ripup_count,
            bounds=self.bounds,
            obstacles=tuple(self.obstacles),
            technology=self.technology,
        )

    def probe(self) -> LevelBResult:
        """What-if routability assessment: route everything, keep nothing.

        Runs :meth:`route` inside one grid transaction and rolls it
        back, so the returned :class:`LevelBResult` reports completion,
        wire length and corners while the occupancy grid comes back
        byte-identical to its pre-probe state (terminals still
        reserved, no wiring).  Rollback cost is proportional to the
        cells the probe touched.  The router can :meth:`route` for real
        afterwards.
        """
        txn = self.tig.planes.begin()
        try:
            result = self.route()
        finally:
            if not txn.closed:
                txn.rollback()
        return result

    def _refine(
        self, results: dict[Net, RoutedNet], ambient_txn: bool = False
    ) -> None:
        """One refinement pass: reroute every net with others in place.

        Nets revisit in routing order.  Each rip/reroute runs inside a
        grid transaction: a net's own wiring is freed before its
        reroute (so its previous path remains available), and a reroute
        that does not improve on the old outcome is rolled back through
        the journal - O(cells touched), with the old wiring restored
        byte-identically.
        """
        for net in order_nets(list(results), self.config.ordering):
            old = results[net]
            if not old.connections and old.complete:
                continue  # nothing wired (coincident pins)
            txn = self.tig.grid_of(self._net_ids[net]).begin()
            self._unroute_net(net)
            new = self._route_net(net)
            if (new.failed_terminals, new.wire_length, new.corner_count) <= (
                old.failed_terminals,
                old.wire_length,
                old.corner_count,
            ):
                txn.commit()
                results[net] = new
            else:
                txn.rollback()
                results[net] = old
            if self.checked:
                self._sanitize(results[net], ambient_txn)

    def _sanitize(self, outcome: RoutedNet, ambient_txn: bool) -> None:
        """Checked mode: sanitize one committed net, raise on violations.

        Runs the paper invariants of the net's own connections plus the
        grid bookkeeping audit (ledger replay, journal balance) through
        :func:`repro.check.sanitize_commit`; violations raise
        :class:`repro.check.CheckFailure` at the first bad commit
        instead of surfacing as mystery shorts later.
        """
        from repro.check import CheckFailure, sanitize_commit

        violations = sanitize_commit(
            self.tig.grid_of(outcome.net_id), outcome, in_ambient_txn=ambient_txn
        )
        if violations:
            raise CheckFailure(violations)

    def _pick_ripup_victims(
        self, net: Net, results: dict[Net, RoutedNet]
    ) -> list[Net]:
        """Routed nets crowding the failed net's terminals (at most 3).

        Victims are drawn from the failed net's *own plane*: ripping a
        net routed elsewhere cannot free the cells this net needs (an
        upper-plane net's through-stack blockage is terminal-anchored
        and survives its rip).
        """
        net_id = self._net_ids[net]
        plane = self.tig.plane_of(net_id)
        grid = self.tig.planes[plane]
        counts: dict[int, int] = {}
        for term in self.tig.terminals_of(net_id):
            for owner in grid.owners_near(term.v_idx, term.h_idx, radius=2):
                if owner != net_id and self.tig.plane_of(owner) == plane:
                    counts[owner] = counts.get(owner, 0) + 1
        by_id = {self._net_ids[n]: n for n in self.nets}
        ranked = sorted(counts, key=lambda o: (-counts[o], o))
        victims = []
        for owner in ranked:
            victim = by_id.get(owner)
            if victim is not None and victim in results:
                victims.append(victim)
            if len(victims) == 3:
                break
        return victims

    def unroute(self, net: Net) -> None:
        """Rip one net's wiring, leaving its terminals reserved.

        The public face of :meth:`_unroute_net` for the iterative
        driver (:mod:`repro.iterate`): after ripping every net the grid
        holds terminals only, exactly the state a fresh :meth:`route`
        starts from.  Callers must hold an open plane-set transaction
        (or accept that the rip is permanent).
        """
        self._unroute_net(net)

    def _unroute_net(self, net: Net) -> None:
        """Rip a net's wiring off the grid and re-reserve its terminals.

        ``rip_net`` replays the net's mutation ledger, so the cost is
        proportional to the cells the net actually occupied.  Only the
        net's own plane is ripped: its through-stack blockage on lower
        planes belongs to its terminals, which persist across rips.
        """
        net_id = self._net_ids[net]
        grid = self.tig.grid_of(net_id)
        # repro: allow[txn.commit] ambient transaction: callers hold explicit savepoints (grid.begin() in _refine, planes.begin() in probe) or run under the engine's `with grid.transaction():` scope
        grid.rip_net(net_id)
        for term in self.tig.terminals_of(net_id):
            grid.reserve_terminal(term.v_idx, term.h_idx, net_id)

    # ------------------------------------------------------------------
    def _route_net(self, net: Net) -> RoutedNet:
        net_id = self._net_ids[net]
        connections, failed = route_net_terminals(
            self.tig.grid_of(net_id),
            net_id,
            self.tig.terminals_of(net_id),
            lambda source, target: self._route_connection(net_id, source, target),
        )
        # Terminals a wide net's claim made unreachable never entered
        # the routable set; they count as failed from the outset.
        failed += len(self.tig.pinched_terminals(net_id))
        return RoutedNet(
            net=net,
            net_id=net_id,
            connections=connections,
            failed_terminals=failed,
            plane=self.tig.plane_of(net_id),
        )

    def _route_connection(
        self, net_id: int, source: GridTerminal, target: GridTerminal
    ) -> RoutedConnection | None:
        """One connection through the primary engine, rescue as needed."""
        conn = self._engine.route(self._ctx_for(net_id), net_id, source, target)
        if conn is None and self.config.maze_fallback:
            conn = self._maze_rescue(net_id, source, target)
        if conn is not None:
            instrument.count(CONNECTIONS_ROUTED)
        return conn

    def _maze_rescue(
        self, net_id: int, source: GridTerminal, target: GridTerminal
    ) -> RoutedConnection | None:
        """Last-resort whole-grid shot with the rescue engine.

        The rescued connection's cost is evaluated with the regular
        section 3.2 cost model (the engine prices the committed path
        with :class:`CornerCostEvaluator`), so rescue costs aggregate
        cleanly with MBFS costs; ``expansions_used == -1`` marks the
        rescue.
        """
        engine = self._rescue_engine()
        instrument.count(MAZE_FALLBACKS)
        with instrument.span(SPAN_MAZE_RESCUE):
            conn = engine.route(
                self._ctx_for(net_id), net_id, source, target, regions=(None,)
            )
        instrument.event(
            EVT_MAZE_FALLBACK, net_id=net_id, found=conn is not None
        )
        if conn is not None:
            conn.expansions_used = -1  # marks a maze rescue
        return conn

    def _regions(
        self, source: GridTerminal, target: GridTerminal
    ) -> Iterator[Region]:
        """Index-space search regions, smallest first, whole grid last."""
        yield from bounded_regions(self.config, source, target)
        yield None  # unbounded: the entire layout


def bounded_regions(
    config: LevelBConfig, source: GridTerminal, target: GridTerminal
) -> Iterator[tuple[Interval, Interval]]:
    """The escalation schedule's bounded regions, smallest first.

    ``region_margin_tracks`` around the terminals' bounding box, grown
    by ``region_growth`` per expansion.  Speculative workers search
    these alone: their "whole grid" would be a window, not the layout.
    """
    v_box = Interval.spanning(source.v_idx, target.v_idx)
    h_box = Interval.spanning(source.h_idx, target.h_idx)
    margin = config.region_margin_tracks
    for _ in range(config.max_region_expansions + 1):
        yield (v_box.expanded(margin), h_box.expanded(margin))
        margin *= config.region_growth

