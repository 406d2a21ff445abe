"""Conflict-graph wave planning for speculative net-level parallelism.

The level B router commits nets one at a time, but the bounded-region
search (paper section 3.1) means most nets only ever *read* a small
rectangle of the grid around their terminals.  Two nets whose read
rectangles are disjoint cannot influence each other's searches, so they
may be routed concurrently and committed in canonical order with a
result identical to serial routing.

This module computes those read rectangles ("windows") and buckets nets
into **waves** of pairwise-disjoint windows.  A window must cover every
cell a speculative worker could read:

* the escalating search regions — the terminal bounding box expanded by
  ``region_margin_tracks * region_growth**k`` for each speculated
  expansion ``k``; multi-terminal nets compound this, because a Steiner
  attachment point may itself sit a full margin outside the previous
  reach, so the margin scales with ``(terminals - 1)``;
* the cost model's read halo — :class:`~repro.core.cost.CostWeights`
  evaluates ``drg``/``dup``/``acf`` over a ``radius``-track window
  around candidate corners, and
  :class:`~repro.core.coupling.ParallelRunPenalty` reads
  ``parallel_run_separation`` neighbouring tracks along the path.

Windows are clamped to the grid, so clipping a search region at a
window edge coincides exactly with clipping it at the grid edge — the
property that makes a worker's sub-grid search bit-equal to the serial
search (see docs/PARALLELISM.md).

Planning is an optimisation only: correctness never depends on it.  The
merger re-validates every window against the live grid before applying
a speculative route, so an undersized wave merely wastes worker time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.geometry import Interval

if TYPE_CHECKING:
    from repro.core.router import LevelBConfig
    from repro.grid.occupancy import RoutingGrid

__all__ = [
    "DispatchConfig",
    "NetPlan",
    "halo_tracks",
    "net_window",
    "plan_wave",
    "windows_overlap",
]


@dataclass(frozen=True)
class DispatchConfig:
    """Tuning knobs for the parallel dispatch layer (tier 1)."""

    #: Concurrent speculative workers.  ``0`` disables speculation
    #: entirely (the router runs serially).
    workers: int = 2
    #: Executor kind: ``"process"`` (default; falls back to threads when
    #: process pools are unavailable), ``"thread"`` or ``"serial"``
    #: (in-line execution, for debugging and deterministic tests).
    mode: str = "process"
    #: How many region escalations a worker may attempt before giving
    #: up and deferring to the serial path.  Each step multiplies the
    #: window halo by ``region_growth``, shrinking wave sizes, so the
    #: default speculates only the first (smallest) region — which is
    #: the region that succeeds for the overwhelming majority of nets.
    speculate_expansions: int = 0
    #: Upper bound on nets per wave (bounds snapshot memory in flight).
    max_wave: int = 16
    #: How far down the pending-net order the planner scans when
    #: filling a wave.
    scan_ahead: int = 64
    #: Nets whose window covers more than this fraction of the grid are
    #: never speculated (the snapshot would cost more than the search).
    max_window_fraction: float = 0.85
    #: Coarse-then-detailed planning: assign nets to regions of a
    #: :class:`~repro.globalroute.regions.RegionModel` up front, then
    #: fill waves by walking candidate nets region-by-region instead of
    #: linearly down the canonical order.  Changes only *which*
    #: disjoint work each wave discovers; committed geometry stays
    #: bit-identical to the flat run (docs/SCALING.md).
    hierarchical: bool = False
    #: Region edge length (tracks) for hierarchical planning.
    region_tracks: int = 32

    def __post_init__(self) -> None:
        if self.mode not in ("process", "thread", "serial"):
            raise ValueError(f"unknown dispatch mode {self.mode!r}")
        if self.speculate_expansions < 0:
            raise ValueError("speculate_expansions must be >= 0")
        if self.region_tracks < 1:
            raise ValueError("region_tracks must be >= 1")


@dataclass(frozen=True)
class NetPlan:
    """One net's planned read window, in global index space.

    ``plane`` is the over-cell plane the net routes on: windows on
    different planes touch disjoint occupancy state, so they never
    conflict even when their index rectangles coincide.
    """

    net_id: int
    v_iv: Interval
    h_iv: Interval
    plane: int = 0

    @property
    def cells(self) -> int:
        return self.v_iv.count * self.h_iv.count


def halo_tracks(
    config: LevelBConfig,
    speculate_expansions: int,
    num_terminals: int = 2,
    footprint_reach: int = 0,
) -> int:
    """Tracks a net's reads may extend beyond its terminal bounding box.

    ``config`` is the router's :class:`~repro.core.router.LevelBConfig`.
    The bound is the speculated search-region margin (compounded once
    per Steiner connection for multi-terminal nets, since an attachment
    point may lie a full margin outside the previous reach) plus the
    cost model's read radius.  ``footprint_reach`` is the net's width
    footprint reach (``span - 1 + guard`` — see
    :meth:`~repro.grid.RoutingGrid.footprint_reach`): a wide net's
    occupancy probes read that many extra tracks past every candidate,
    so the window must cover them too.
    """
    margin = config.region_margin_tracks
    for _ in range(speculate_expansions):
        margin *= config.region_growth
    connections = max(1, num_terminals - 1)
    pad = max(config.weights.radius, config.parallel_run_separation, 1)
    return margin * connections + pad + footprint_reach


def net_window(
    grid: RoutingGrid,
    net_id: int,
    terminals: Sequence,
    config: LevelBConfig,
    speculate_expansions: int,
    plane: int = 0,
    footprint_reach: int = 0,
) -> NetPlan:
    """The padded, grid-clamped read window for one net."""
    v_lo = min(t.v_idx for t in terminals)
    v_hi = max(t.v_idx for t in terminals)
    h_lo = min(t.h_idx for t in terminals)
    h_hi = max(t.h_idx for t in terminals)
    unique = len({(t.v_idx, t.h_idx) for t in terminals})
    halo = halo_tracks(config, speculate_expansions, unique, footprint_reach)
    v_iv = grid.vtracks.clip_indices(Interval(v_lo, v_hi).expanded(halo))
    h_iv = grid.htracks.clip_indices(Interval(h_lo, h_hi).expanded(halo))
    return NetPlan(net_id=net_id, v_iv=v_iv, h_iv=h_iv, plane=plane)


def windows_overlap(a: NetPlan, b: NetPlan) -> bool:
    """Do two planned windows share any grid cell?

    Windows on different planes read different grids, so they are
    always disjoint regardless of their index rectangles.
    """
    return (
        a.plane == b.plane
        and a.v_iv.overlaps(b.v_iv)
        and a.h_iv.overlaps(b.h_iv)
    )


def plan_wave(plans: Sequence[NetPlan], limit: int | None = None) -> list[NetPlan]:
    """Greedy wave selection: a maximal prefix-respecting disjoint set.

    The first plan is always selected (it is the net at the head of the
    routing order, which must make progress); each later plan joins the
    wave when its window is disjoint from every window already in it.
    Greedy-by-order keeps the wave aligned with the serial schedule, so
    applied results never have to wait on a net routed further down the
    order.
    """
    wave: list[NetPlan] = []
    for plan in plans:
        if limit is not None and len(wave) >= limit:
            break
        if all(not windows_overlap(plan, member) for member in wave):
            wave.append(plan)
    return wave
