"""repro.dispatch - parallel & batch execution over the routing stack.

Two tiers, built on PR 2's transactional grid and PR 3's independent
checker:

**Tier 1 — speculative net-level parallelism** inside one design
(:mod:`plan` / :mod:`workers` / :mod:`merge`): level B nets are bucketed
into waves of spatially disjoint read windows, each wave routes
concurrently on per-net grid-window copies, and a deterministic merger
replays the results through ``commit_path`` in canonical net order.
Every speculation is validated against the live grid before it is
applied, so the committed geometry is **bit-identical to serial
routing** — speculation can only ever change how fast the answer
arrives, never the answer (docs/PARALLELISM.md has the argument).

    from repro.dispatch import DispatchConfig, route_levelb
    result = route_levelb(router, DispatchConfig(workers=4))

or, through the flow layer::

    overcell_flow(design, FlowParams(parallel=4))

**Tier 2 — batch job runner** (:mod:`jobs`): fan a corpus of
(design, flow) jobs across a process pool with per-job timeout and
retry-on-crash, surfaced as the ``repro dispatch`` CLI.

Both tiers emit ``dispatch.*`` counters/spans/events through
:mod:`repro.instrument`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.router import LevelBResult, LevelBRouter
from repro.netlist import Net
from repro.dispatch.jobs import (
    BatchReport,
    Job,
    JobOutcome,
    JobRunner,
    run_suite_batch,
)
from repro.dispatch.merge import WaveSpeculator
from repro.dispatch.plan import (
    DispatchConfig,
    NetPlan,
    halo_tracks,
    net_window,
    plan_wave,
    windows_overlap,
)
from repro.dispatch.workers import (
    NetTask,
    SpecConnection,
    SpecResult,
    WorkerPool,
    route_net_task,
    speculative_config,
)

__all__ = [
    "BatchReport",
    "DispatchConfig",
    "Job",
    "JobOutcome",
    "JobRunner",
    "NetPlan",
    "NetTask",
    "SpecConnection",
    "SpecResult",
    "WaveSpeculator",
    "WorkerPool",
    "halo_tracks",
    "net_window",
    "plan_wave",
    "route_levelb",
    "route_net_task",
    "run_suite_batch",
    "speculative_config",
    "windows_overlap",
]


def route_levelb(
    router: LevelBRouter,
    config: DispatchConfig | None = None,
    *,
    order: Sequence[Net] | None = None,
) -> LevelBResult:
    """Route a :class:`LevelBRouter` with speculative parallelism.

    A drop-in replacement for ``router.route()``: identical result
    (see the determinism contract in :mod:`repro.dispatch.merge`),
    wall-clock bounded by the serial run plus merge overhead.  With
    ``workers=0`` this *is* ``router.route()``.  ``order`` forwards an
    explicit net permutation (``repro.iterate`` passes re-ordered
    nets); the parity contract holds for any order because the wave
    planner and merger both key off the order they are given.
    """
    cfg = config or DispatchConfig()
    if cfg.workers <= 0:
        return router.route(order=order)
    speculator = WaveSpeculator(router, cfg)
    try:
        return router.route(speculator=speculator, order=order)
    finally:
        speculator.close()
