"""Flow configuration: the one validated home of every flow knob."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import LevelBConfig
from repro.core.router import OBJECTIVES, Obstacle
from repro.grid import available_backends
from repro.partition import PartitionStrategy
from repro.technology import Technology

#: Detailed channel routers level A can run (``FlowParams.channel_router``).
CHANNEL_ROUTERS = ("greedy", "left-edge")
#: Dispatch executor kinds (``FlowParams.parallel_mode``).
PARALLEL_MODES = ("process", "thread", "serial")


def _is_count(value: object, low: int) -> bool:
    # bool is an int subclass, but a JSON ``true`` is not a count.
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_positive(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return 0 < value < math.inf


@dataclass(frozen=True)
class FlowParams:
    """Knobs shared by every flow.

    Construction validates every scalar knob and raises a
    :class:`ValueError` naming the offending field, so the CLI, the
    batch runner and the serve protocol share one boundary.

    Attributes
    ----------
    technology:
        The layer stack; the channel substrate uses metal1/metal2,
        level B the reserved over-cell pairs above them (metal3/metal4
        by default — see docs/LAYERS.md).
    margin:
        Clearance around the core in lambda.
    aspect:
        Target core aspect ratio for the shelf placer.
    partition:
        How nets split into sets A and B (over-cell flow only).
    length_threshold:
        Half-perimeter threshold for ``LONG_TO_B`` partitioning.
    levelb:
        Level B router configuration.
    obstacles:
        Over-cell exclusions forwarded to the level B router.
    channel_area_factor:
        The optimistic multi-layer channel model's channel-area scale
        (the paper grants the comparison 0.5).
    channel_router:
        Detailed channel router for level A: ``"greedy"`` (default;
        always completes) or ``"left-edge"`` (dogleg left-edge, falls
        back to greedy on vertical-constraint cycles).
    checked:
        Run the full independent verification (:func:`repro.check.
        check_flow`) after the flow and attach the report to
        ``FlowResult.check_report``; also turns on the level B
        router's per-commit checked mode.  Off by default.
    parallel:
        Speculative level B worker count (``repro.dispatch``).  ``0``
        (default) routes serially; ``N >= 1`` routes level B nets in
        waves of ``N`` workers with results guaranteed bit-identical
        to the serial run (docs/PARALLELISM.md).
    parallel_mode:
        Dispatch executor kind: ``"process"`` (default), ``"thread"``
        or ``"serial"`` (in-line, for debugging).
    backend:
        Occupancy storage backend for the level B grid: ``"dense"``
        (default; contiguous numpy arrays) or ``"sparse"`` (paged
        first-touch chunks, memory proportional to committed geometry
        — docs/SCALING.md).  Routing results are bit-identical across
        backends; the knob only trades memory for per-access overhead.
    hierarchical:
        Route level B coarse-then-detailed: a region-graph pass
        assigns nets to floorplan regions, then the dispatch wave
        planner groups each wave by region instead of scanning the
        canonical order linearly (docs/SCALING.md).  Results stay
        bit-identical to the flat run; the knob only changes how
        non-overlapping work is discovered.
    planes:
        Over-cell routing planes for level B.  ``1`` (default) is the
        paper's single metal3/metal4 pair and preserves historical
        behavior exactly; ``N > 1`` distributes level B nets across N
        reserved-layer pairs (extending ``technology`` with
        extrapolated pairs when it is too short — see
        :func:`repro.technology.ensure_overcell_planes`).
    iterate:
        Negotiated-congestion rip-up-and-re-route for level B
        (``repro.iterate`` — docs/ITERATION.md).  Off by default: a
        one-pass run never constructs history costs and its routed
        geometry stays bit-identical to the seed digests.  On, failed
        nets trigger whole-design rip-up passes with per-track history
        costs until the design completes or the iteration/stall budget
        runs out; the convergence report lands in
        ``FlowResult.notes["iterate"]``.
    max_iterations:
        Re-route pass budget when ``iterate`` is on (the initial pass
        is not counted).
    ordering_policy:
        Registered :class:`repro.iterate.OrderingPolicy` name deciding
        each pass's net order (``longest-first``, ``congestion`` or
        ``feature``; see docs/ITERATION.md).
    objective:
        Level B routing objective: ``"wire"`` (default; the paper's
        wire-length-led cost, bit-identical to the seed) or ``"vias"``
        (via minimization — plane assignment and corner pricing driven
        by the technology's per-level via costs, docs/TECHNOLOGY.md).
    """

    technology: Technology = field(default_factory=Technology.four_layer)
    channel_router: str = "greedy"
    margin: int = 16
    aspect: float = 1.0
    partition: PartitionStrategy = PartitionStrategy.CRITICAL_TO_A
    length_threshold: int | None = None
    levelb: LevelBConfig = field(default_factory=LevelBConfig)
    obstacles: tuple[Obstacle, ...] = ()
    channel_area_factor: float = 0.5
    checked: bool = False
    parallel: int = 0
    parallel_mode: str = "process"
    planes: int = 1
    backend: str = "dense"
    hierarchical: bool = False
    iterate: bool = False
    max_iterations: int = 8
    ordering_policy: str = "longest-first"
    objective: str = "wire"

    def __post_init__(self) -> None:
        # repro.iterate sits above the flow layer; import on use.
        from repro.iterate import available_policies

        for name, choices in (
            ("channel_router", CHANNEL_ROUTERS),
            ("parallel_mode", PARALLEL_MODES),
            ("backend", available_backends()),
            ("ordering_policy", available_policies()),
            ("objective", OBJECTIVES),
        ):
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                what = name.replace("_", " ")
                raise ValueError(f"{name}: unknown {what} {value!r} (available: {list(choices)})")
        threshold = self.length_threshold
        finite = "a positive finite number"
        for name, ok, expected in (
            ("margin", _is_count(self.margin, 0), "an integer >= 0"),
            ("aspect", _is_positive(self.aspect), finite),
            ("partition", isinstance(self.partition, PartitionStrategy), "a PartitionStrategy"),
            ("length_threshold", threshold is None or _is_count(threshold, 0), "an integer >= 0"),
            ("channel_area_factor", _is_positive(self.channel_area_factor), finite),
            ("checked", isinstance(self.checked, bool), "a boolean"),
            ("parallel", _is_count(self.parallel, 0), "an integer >= 0"),
            ("planes", _is_count(self.planes, 1), "an integer >= 1"),
            ("hierarchical", isinstance(self.hierarchical, bool), "a boolean"),
            ("iterate", isinstance(self.iterate, bool), "a boolean"),
            ("max_iterations", _is_count(self.max_iterations, 0), "an integer >= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {expected}, got {getattr(self, name)!r}")

    @property
    def channel_pitch(self) -> int:
        """Track/column pitch of the channel layers (metal1/metal2)."""
        return self.technology.layer(1).pitch
