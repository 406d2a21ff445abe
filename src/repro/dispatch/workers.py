"""Speculative routing workers: route one net on a grid window copy.

A worker receives a :class:`NetTask` — the net id, its terminals in
window-local index space, a :class:`~repro.grid.WindowSnapshot` and a
restricted router config — rebuilds an isolated sub-grid from the
snapshot and routes the net on it with the *same* code the serial
router uses (:func:`repro.core.router.route_net_terminals`, the same
engine, the same cost terms).  Track coordinates are carried verbatim
in the snapshot, so the returned geometry is already global; only
index-typed fields (corners, terminals) are translated back by the
window offset.

The payload is deliberately small and picklable: three numpy window
arrays plus a handful of ints, never the router, the TIG or the full
grid — which is what makes process pools viable.

Failure is always safe: a worker that cannot complete the net inside
its window returns ``complete=False`` and the merger routes the net
serially.  More than that, a worker result is *tainted* — reported
incomplete even when every terminal got wired — the moment any single
connection attempt fails or any search region would be truncated by a
mid-grid window edge.  A failed attempt is a decision point where the
restricted worker and the escalating serial router could part ways
(the Steiner loop would fall through to a different attach candidate;
the serial router would instead grow the region and route the original
one), and a truncated region reads different cells than serial would.
Tainting collapses both cases to the serial fallback, so an applied
speculation is always the path serial routing would have committed.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from collections.abc import Iterator

from repro.core.engine import EngineContext, Region, RoutedConnection, get_engine
from repro.core.cost import CornerCostEvaluator, TrackHistory
from repro.core.router import (
    LevelBConfig,
    bounded_regions,
    coupling_terms,
    route_net_terminals,
)
from repro.core.tig import GridTerminal
from repro.geometry import Interval, Point
from repro.grid.occupancy import WindowSnapshot

__all__ = [
    "NetTask",
    "SpecConnection",
    "SpecFuture",
    "SpecResult",
    "WorkerPool",
    "route_net_task",
    "speculative_config",
]


@dataclass(frozen=True)
class NetTask:
    """Everything a worker needs to speculatively route one net."""

    net_id: int
    #: Terminals in window-local index space (translate by the window
    #: offset to recover global indices).
    terminals: tuple[GridTerminal, ...]
    window: WindowSnapshot
    config: LevelBConfig
    sensitive_ids: frozenset[int]
    #: Negotiated-congestion history sliced to the window (local
    #: indices, docs/ITERATION.md).  The merge contract's byte-equality
    #: check validates grid *state*, not the cost model, so an
    #: iterative run must ship its history or workers would silently
    #: price paths differently than the serial router.  ``None`` in
    #: one-pass mode.
    history: TrackHistory | None = None
    #: The net's width footprint ``(span, guard)`` (width classes,
    #: docs/TECHNOLOGY.md).  Registered on the worker's sub-grid so its
    #: occupancy probes and claims expand exactly as the serial grid's
    #: would; ``(1, 0)`` for ordinary single-track nets.
    footprint: tuple[int, int] = (1, 0)
    #: Per-corner cost surcharge (``objective="vias"``).  Selection
    #: inputs must match the serial evaluator bit-for-bit — the merge
    #: contract's byte-equality check validates grid state only.
    corner_surcharge: float = 0.0


@dataclass(frozen=True)
class SpecConnection:
    """One speculatively routed connection, in global terms."""

    source: GridTerminal
    target: GridTerminal
    points: tuple[Point, ...]
    corners: tuple[tuple[int, int], ...]
    cost: float
    expansions_used: int


@dataclass(frozen=True)
class SpecResult:
    """A worker's answer: the net's connections, or an honest failure."""

    net_id: int
    complete: bool
    connections: tuple[SpecConnection, ...]
    nodes_created: int


def speculative_config(config: LevelBConfig, speculate_expansions: int) -> LevelBConfig:
    """The restricted config workers route with.

    Workers attempt only the first ``speculate_expansions + 1`` bounded
    regions and never fall through to the whole-grid maze rescue: the
    escalation tail belongs to the serial path, where it runs with
    authoritative state.  Rip-up, refinement and checked mode are
    router-level concerns that never execute inside a worker.
    """
    return replace(
        config,
        max_region_expansions=min(config.max_region_expansions, speculate_expansions),
        maze_fallback=False,
        max_ripups=0,
        refinement_passes=0,
        checked=False,
    )


def _region_truncated(window: WindowSnapshot, v_iv: Interval, h_iv: Interval, pad: int) -> bool:
    """Would clipping ``region + pad`` at the window differ from serial?

    The region (in window-local indices) plus the cost model's read
    halo must either fit inside the window or run past a window edge
    that coincides with the *global* grid edge — there serial routing
    clips identically.  Anywhere else the worker would search (and
    cost) a smaller rectangle than the serial router, so the
    speculation must be abandoned.
    """
    nv, nh = window.num_vtracks, window.num_htracks
    if v_iv.lo - pad < 0 and window.v_lo > 0:
        return True
    if v_iv.hi + pad > nv - 1 and window.v_lo + nv < window.global_vtracks:
        return True
    if h_iv.lo - pad < 0 and window.h_lo > 0:
        return True
    return h_iv.hi + pad > nh - 1 and window.h_lo + nh < window.global_htracks


def route_net_task(task: NetTask) -> SpecResult:
    """Route one net on the task's isolated sub-grid (worker entry)."""
    grid = task.window.to_grid()
    if task.footprint != (1, 0):
        span, guard = task.footprint
        grid.set_net_footprint(task.net_id, span, guard=guard)
    cfg = task.config
    engine = get_engine(cfg.engine).from_config(cfg)
    pad = max(cfg.weights.radius, cfg.parallel_run_separation, 1)
    # Wide nets probe `reach` tracks past every candidate; a window
    # edge inside that reach truncates reads serial routing would make.
    pad += task.footprint[0] - 1 + task.footprint[1]
    nodes = 0
    tainted = False

    def add_nodes(n: int) -> None:
        nonlocal nodes
        nodes += n

    def evaluator(net_id: int) -> CornerCostEvaluator:
        return CornerCostEvaluator(
            grid,
            cfg.weights,
            extra_terms=coupling_terms(net_id, task.sensitive_ids, cfg),
            history=task.history,
            width_tracks=task.footprint[0],
            corner_surcharge=task.corner_surcharge,
        )

    def regions(source: GridTerminal, target: GridTerminal) -> Iterator[Region]:
        nonlocal tainted
        for v_iv, h_iv in bounded_regions(cfg, source, target):
            if _region_truncated(task.window, v_iv, h_iv, pad):
                tainted = True
                return  # larger regions only truncate more
            yield (v_iv, h_iv)

    ctx = EngineContext(
        grid=grid,
        config=cfg,
        evaluator=evaluator,
        regions=regions,
        add_nodes=add_nodes,
    )

    def connect(source: GridTerminal, target: GridTerminal) -> RoutedConnection | None:
        # Any failed attempt is a decision point where serial routing
        # would escalate instead of (as the Steiner loop does) falling
        # through to the next attach candidate: taint the whole net so
        # the merger declines it and serial order decides.
        nonlocal tainted
        conn = engine.route(ctx, task.net_id, source, target)
        if conn is None:
            tainted = True
        return conn

    connections, failed = route_net_terminals(grid, task.net_id, task.terminals, connect)
    dv, dh = task.window.v_lo, task.window.h_lo
    spec = tuple(
        SpecConnection(
            source=GridTerminal(c.source.v_idx + dv, c.source.h_idx + dh),
            target=GridTerminal(c.target.v_idx + dv, c.target.h_idx + dh),
            points=tuple(c.path.waypoints()),
            corners=tuple((v + dv, h + dh) for v, h in c.corners),
            cost=c.cost,
            expansions_used=c.expansions_used,
        )
        for c in connections
    )
    return SpecResult(
        net_id=task.net_id,
        complete=failed == 0 and not tainted,
        connections=spec,
        nodes_created=nodes,
    )


class WorkerPool:
    """A ``concurrent.futures`` facade with graceful degradation.

    ``mode="process"`` tries a :class:`ProcessPoolExecutor` and falls
    back to threads when process pools are unavailable (restricted
    sandboxes, missing semaphores); ``mode="thread"`` uses threads
    directly; ``mode="serial"`` computes lazily in the caller's thread
    — useful for debugging and for exercising the merge path without
    nondeterministic scheduling.  When the executor breaks mid-run
    (e.g. a killed worker process) the pool marks itself dead; every
    outstanding and future submission then reports failure, which the
    merger treats as "route serially".
    """

    def __init__(self, workers: int, mode: str = "process") -> None:
        self.workers = max(1, workers)
        self.requested_mode = mode
        self.mode = mode
        self._executor: Executor | None = None
        self._dead = False
        if mode == "serial":
            return
        if mode == "process":
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ValueError, ImportError):
                self.mode = "thread"
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)

    @property
    def alive(self) -> bool:
        return not self._dead

    def submit(self, task: NetTask) -> "Future[SpecResult] | _LazyFuture":
        if self.mode == "serial":
            return _LazyFuture(task)
        assert self._executor is not None
        try:
            return self._executor.submit(route_net_task, task)
        except RuntimeError:
            # Executor already broken/shut down: report a failed future
            # so the merger falls back to serial routing.
            self._dead = True
            failed: Future[SpecResult] = Future()
            failed.set_exception(RuntimeError("worker pool is dead"))
            return failed

    def mark_dead(self) -> None:
        """Stop speculating (called after a broken-pool error)."""
        self._dead = True

    def close(self) -> None:
        if self._executor is not None:
            # cancel_futures needs 3.9+; wait so worker processes never
            # outlive the routing run.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


class _LazyFuture:
    """A Future-alike that routes on first ``result()`` (serial mode)."""

    def __init__(self, task: NetTask) -> None:
        self._task = task
        self._result: SpecResult | None = None

    def result(self, timeout: float | None = None) -> SpecResult:
        if self._result is None:
            self._result = route_net_task(self._task)
        return self._result

    def cancel(self) -> bool:  # pragma: no cover - protocol completeness
        return False

    def done(self) -> bool:
        return self._result is not None


#: What :meth:`WorkerPool.submit` hands back — a real executor future
#: or the serial-mode lazy stand-in; both expose ``result()``.
SpecFuture = Future[SpecResult] | _LazyFuture

