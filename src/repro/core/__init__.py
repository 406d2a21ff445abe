"""The paper's primary contribution: the level B over-cell router.

The router solves the two-dimensional routing problem over the whole
layout (between-cell *and* over-cell areas) on the reserved over-cell
planes — the paper's metal3/metal4 pair by default, or any number of
stacked pairs via ``LevelBRouter(planes=...)`` (docs/LAYERS.md):

* :mod:`repro.core.tig` - the Track Intersection Graph solution-space
  representation (bipartite: vertical tracks vs. horizontal tracks,
  edges are usable intersections) and grid terminals.
* :mod:`repro.core.search` - the modified breadth-first search (MBFS)
  that finds *all* minimum-corner paths for a two-terminal connection
  and records them in Path Selection Trees.
* :mod:`repro.core.cost` - the corner cost model
  ``C = w1*wl + sum_j(w21*drg_j + w22*dup_j + w23*acf_j)``.
* :mod:`repro.core.select` - backtracking (depth-first with bounding)
  over the Path Selection Trees to pick the cheapest candidate.
* :mod:`repro.core.steiner` - the Steiner-Prim decomposition of
  multi-terminal nets into two-terminal connections.
* :mod:`repro.core.ordering` - serial net ordering (longest distance
  first by default, user criteria supported).
* :mod:`repro.core.assign` - the static plane-assignment pass that
  distributes nets across over-cell planes by estimated congestion.
* :mod:`repro.core.engine` - the :class:`ConnectionEngine` protocol
  (search -> candidates -> select -> commit); the MBFS/PST engine
  lives here, the Lee engine in :mod:`repro.maze.lee`.
* :mod:`repro.core.router` - the :class:`LevelBRouter` orchestrator:
  net ordering, Steiner decomposition, rip-up, refinement - thin
  sequencing over engines and grid transactions.
"""

from repro.core.tig import GridTerminal, TrackIntersectionGraph
from repro.core.assign import NetDemand, assign_planes
from repro.core.cost import CostWeights
from repro.core.search import MBFSearch, PSTNode, SearchResult
from repro.core.select import select_best_path
from repro.core.ordering import NetOrdering, order_nets
from repro.core.engine import (
    ConnectionEngine,
    EngineContext,
    MBFSEngine,
    RoutedConnection,
)
from repro.core.router import LevelBConfig, LevelBResult, LevelBRouter, RoutedNet

__all__ = [
    "GridTerminal",
    "TrackIntersectionGraph",
    "NetDemand",
    "assign_planes",
    "CostWeights",
    "MBFSearch",
    "PSTNode",
    "SearchResult",
    "select_best_path",
    "NetOrdering",
    "order_nets",
    "ConnectionEngine",
    "EngineContext",
    "MBFSEngine",
    "RoutedConnection",
    "LevelBConfig",
    "LevelBResult",
    "LevelBRouter",
    "RoutedNet",
]
