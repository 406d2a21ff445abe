"""Spans around the calls into each layer, recorded from outside ``src/``.

:class:`Tracer` replaces each layer's public entry point, at the place
its caller looks it up, with a wrapper that appends one span
``[name, start, end, parent, info]`` to an in-memory list.  ``parent``
is the index of the enclosing span (-1 at the top).  ``info`` holds
what the call returned that a layer metric needs: whether a search
found a path, how many candidates selection saw, whether a maze rescue
succeeded.  :func:`layer_metrics` turns one pass's spans and the
program's own ``repro.instrument`` counters into the per-layer metrics.

A layer's time is self time: its spans' durations minus the part their
child spans cover, so the layer times and ``bench.unattributed_s`` add
up to the traced flow time.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.core.engine
import repro.core.router
import repro.dispatch
import repro.iterate
from repro.channels import GreedyChannelRouter
from repro.core.search import MBFSearch
from repro.dispatch.merge import WaveSpeculator
from repro.globalroute import GlobalRouter
from repro.globalroute.regions import RegionModel
from repro.grid.occupancy import GridTransaction, RoutingGrid
from repro.instrument import names
from repro.maze import LeeEngine
from repro.placement import RowPlacement

#: The benchmark's own spans: one per ``overcell_flow`` call, one per
#: ``check_flow`` call.
FLOW = "flow"
CHECK = "check"

#: (owner, attribute, span name, info extractor) of every timed entry
#: point.  Module functions are patched in the module their caller
#: reads them from; methods on their class.
ENTRY_POINTS: tuple[tuple[Any, str, str, Callable[[Any], dict] | None], ...] = (
    (
        MBFSearch,
        "run",
        "core.search",
        lambda out: {"found": out.found, "nodes": out.nodes_created},
    ),
    (
        repro.core.engine,
        "candidate_paths",
        "core.select.candidates",
        lambda out: {"n": len(out)},
    ),
    (repro.core.engine, "select_best_path", "core.select", None),
    (RoutingGrid, "commit_path", "grid.commit", None),
    (RoutingGrid, "rip_net", "grid.rip", None),
    (GridTransaction, "rollback", "grid.rollback", None),
    (LeeEngine, "route", "maze", lambda out: {"ok": out is not None}),
    (repro.iterate, "iterate_levelb", "iterate", None),
    (repro.dispatch, "route_levelb", "dispatch", None),
    (WaveSpeculator, "begin", "dispatch", None),
    (WaveSpeculator, "take", "dispatch", None),
    (GlobalRouter, "route", "globalroute", None),
    (RegionModel, "build", "globalroute.regions", None),
    (repro.core.router, "assign_planes", "core.assign", None),
    (repro.core.router.LevelBRouter, "__init__", "core.router.setup", None),
    (repro.core.router.LevelBRouter, "route", "core.router", None),
    (GreedyChannelRouter, "route", "channels", None),
    (RowPlacement, "build", "placement", None),
)


class Tracer:
    """In-memory span recorder; install it around the traced passes."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as span ``name``."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, info: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][4] = info(out)
            return out

        return traced

    def patch(self, owner: Any, attr: str, name: str, info: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`remove`."""
        raw = vars(owner)[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, name, info))
        else:
            wrapped = self._wrap(raw, name, info)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every :data:`ENTRY_POINTS` entry for a ``with`` block."""
        for owner, attr, name, info in ENTRY_POINTS:
            self.patch(owner, attr, name, info)
        try:
            yield self
        finally:
            self.remove()


# ----------------------------------------------------------------------
def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _info in spans]
    for _name, start, end, parent, _info in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile_tail(samples: list[float]) -> tuple[int, float]:
    """``(p, value)`` for the highest integer percentile ``p`` with at
    least ten samples beyond it (nearest rank); ``(0, 0.0)`` when there
    are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return 0, 0.0
    p = min(99, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[list[Any]], counters: dict[str, int], flow_s: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced pass.

    Only spans under a ``flow`` span count towards a layer; ``check``
    spans give ``check.s``.  ``flow_s`` is the pass's traced wall time.
    Returns the metrics and, separately, the tail percentile used for
    each per-call distribution.
    """
    own = self_times(spans)
    root = []
    for i, span in enumerate(spans):
        root.append(i if span[3] < 0 else root[span[3]])
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_call: dict[str, list[float]] = {"core.search": [], "maze": []}
    found = nodes = maze_ok = candidates = 0
    for (name, start, end, _parent, info), self_s, top in zip(spans, own, root):
        if name == CHECK:
            busy[CHECK] = busy.get(CHECK, 0.0) + end - start
        if spans[top][0] != FLOW:
            continue
        busy[name] = busy.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if name in per_call:
            per_call[name].append((end - start) * 1e3)
        if name == "core.search":
            found += info["found"]
            nodes += info["nodes"]
        elif name == "maze":
            maze_ok += info["ok"]
        elif name == "core.select.candidates":
            candidates += info["n"]

    def s(*layer: str) -> float:
        return sum(busy.get(name, 0.0) for name in layer)

    m: dict[str, float] = {}
    tails: dict[str, int] = {}
    for layer in ("core.search", "maze"):
        ms = per_call[layer]
        p, tail = percentile_tail(ms)
        tails[layer] = p
        m[f"{layer}.s"] = s(layer)
        m[f"{layer}.calls"] = len(ms)
        m[f"{layer}.ms_p50"] = statistics.median(ms) if ms else 0.0
        m[f"{layer}.ms_tail"] = tail
    m["core.search.nodes"] = nodes
    m["core.search.found_ratio"] = _ratio(found, len(per_call["core.search"]))
    m["maze.nodes"] = counters.get(names.MAZE_NODES_EXPANDED, 0)
    m["maze.success_ratio"] = _ratio(maze_ok, len(per_call["maze"]))
    m["core.select.s"] = s("core.select", "core.select.candidates")
    m["core.select.calls"] = calls.get("core.select", 0)
    m["core.select.candidates"] = candidates
    for op in ("commit", "rip"):
        m[f"grid.{op}.s"] = s(f"grid.{op}")
        m[f"grid.{op}.calls"] = calls.get(f"grid.{op}", 0)
    m["grid.rollback.s"] = s("grid.rollback")
    m["grid.undo_cells"] = counters.get(names.TXN_UNDO_CELLS, 0)
    m["iterate.s"] = s("iterate")
    m["iterate.passes"] = counters.get(names.ITERATE_PASSES, 0)
    m["iterate.nets_ripped"] = counters.get(names.ITERATE_NETS_RIPPED, 0)
    speculated = counters.get(names.DISPATCH_SPECULATED, 0)
    applied = counters.get(names.DISPATCH_APPLIED, 0)
    m["dispatch.s"] = s("dispatch")
    m["dispatch.speculated"] = speculated
    m["dispatch.applied"] = applied
    m["dispatch.apply_ratio"] = _ratio(applied, speculated)
    m["dispatch.conflicts"] = counters.get(names.DISPATCH_CONFLICTS, 0)
    m["globalroute.s"] = s("globalroute")
    m["globalroute.regions_s"] = s("globalroute.regions")
    m["core.assign.s"] = s("core.assign")
    m["core.router.setup_s"] = s("core.router.setup")
    m["core.router.levelb_self_s"] = s("core.router")
    for layer in ("channels", "placement"):
        m[f"{layer}.s"] = s(layer)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["check.s"] = s(CHECK)
    m["bench.unattributed_s"] = s(FLOW)
    m["bench.traced_flow_s"] = flow_s
    return m, tails


#: Per-layer metrics that count work; they must repeat exactly between
#: two traced passes of one process.
COUNT_METRICS = (
    "core.search.calls",
    "core.search.nodes",
    "core.select.calls",
    "core.select.candidates",
    "grid.commit.calls",
    "grid.rip.calls",
    "grid.undo_cells",
    "maze.calls",
    "maze.nodes",
    "iterate.passes",
    "iterate.nets_ripped",
    "dispatch.speculated",
    "dispatch.applied",
    "dispatch.conflicts",
    "channels.calls",
    "placement.calls",
)
