"""Modified breadth-first search over the Track Intersection Graph.

Paper, section 3.1: for each two-terminal connection, *all* paths with
the minimum number of corners are found by two modified breadth-first
searches, one starting from each of the source terminal's two tracks.
The searches build **Path Selection Trees** whose nodes are track
visits; the best path is later chosen from these trees
(:mod:`repro.core.select`).

Key properties implemented here, matching the paper:

* A path is a sequence of alternating horizontal and vertical track
  segments; its corner count equals the number of track switches
  (the arrival at the target terminal is not a corner, so the example
  path ``(v2, h4, v6)`` of Figure 1 has exactly one corner).
* Each vertex (track) is *examined exactly once* - once a track has
  been reached at some BFS level it is not re-entered at a later
  level - **except the target vertices**, which may be entered at any
  level.  This excludes paths with more than one corner on the same
  track and is what makes the search fast.
* Several Path Selection Tree nodes may exist for the same track at
  the same level (one per distinct parent), which is how the trees of
  Figure 2 contain the vertex ``h4`` twice.
* The solution space of each search is a rectangular region around the
  two terminals; the caller widens the region and retries on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import instrument
from repro.instrument.names import (
    MBFS_ABORTS,
    MBFS_NODES_EXPANDED,
    MBFS_SEARCHES,
    SPAN_MBFS_SEARCH,
)
from repro.geometry import Interval, Point
from repro.grid import RoutingGrid, UsableRuns
from repro.core.tig import GridTerminal

VERTICAL = "V"
HORIZONTAL = "H"
_OTHER = {VERTICAL: HORIZONTAL, HORIZONTAL: VERTICAL}


@dataclass(slots=True)
class PSTNode:
    """One node of a Path Selection Tree: a visit to a track.

    Attributes
    ----------
    kind:
        ``"V"`` when the node is a vertical track, ``"H"`` horizontal.
    track:
        Index of the track in its track set.
    entry:
        Index on the *orthogonal* track set where the path entered this
        track (the entry intersection is ``(track, entry)`` for a
        vertical node and ``(entry, track)`` for a horizontal one).
    span:
        The maximal usable index interval along this track around the
        entry point - how far the wire can slide.  Set when the node is
        created.
    parent:
        The previous track visit (``None`` at a root).
    depth:
        Number of track switches from the root, i.e. the corner count
        of a path completed at this node.
    """

    kind: str
    track: int
    entry: int
    span: Interval | None
    parent: "PSTNode" | None
    depth: int
    children: list["PSTNode"] = field(default_factory=list, repr=False)

    def name(self) -> str:
        """Paper-style vertex name (``v3`` / ``h2``, 1-based)."""
        return f"{'v' if self.kind == VERTICAL else 'h'}{self.track + 1}"

    def chain(self) -> list["PSTNode"]:
        """Root-to-this node list."""
        nodes: list[PSTNode] = []
        node: PSTNode | None = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    def track_sequence(self) -> list[str]:
        """Paper-style track name sequence from the root."""
        return [n.name() for n in self.chain()]


@dataclass
class CandidatePath:
    """A reconstructed minimum-corner candidate for one connection."""

    points: list[Point]
    corners: list[tuple[int, int]]
    length: int
    leaf: PSTNode

    @property
    def corner_count(self) -> int:
        return len(self.corners)


@dataclass
class SearchResult:
    """Outcome of the two MBFS runs for one two-terminal connection."""

    source: GridTerminal
    target: GridTerminal
    roots: list[PSTNode]
    leaves: list[PSTNode]
    min_corners: int | None
    nodes_created: int
    aborted: bool = False

    @property
    def found(self) -> bool:
        return self.min_corners is not None


class _Tracks:
    """One kind of track inside a search window, in window-local indices.

    Track ``t`` is grid track ``offset + t``; position ``p`` along it is
    the window index of the crossing track of the other kind.
    ``corner[t, p]`` says a node on ``t`` may turn at ``p``; ``runs``
    holds where the net's wire on ``t`` may pass.  ``goal`` is the
    target's ``(track, position)``.
    """

    __slots__ = ("offset", "goal", "corner", "runs")

    def __init__(
        self, offset: int, goal: tuple[int, int], usable: np.ndarray, corner: np.ndarray
    ) -> None:
        self.offset = offset
        self.goal = goal
        self.corner = corner
        self.runs = UsableRuns(usable)


#: Most (parent, crossing) pairs one pass over a level materialises;
#: bounds the search's working memory on wide windows.
_PAIRS_PER_PASS = 1 << 14


def _slices(lens: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Consecutive ``[a, b)`` index ranges of about ``limit`` total length."""
    ends = np.cumsum(lens)
    if not ends.size or ends[-1] <= limit:
        return [(0, lens.size)]
    cuts = (np.flatnonzero(np.diff(ends // limit)) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, lens.size]))


def _pairs(
    corner: np.ndarray,
    f_track: np.ndarray,
    f_entry: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(node, crossing)`` pair of some frontier nodes, in that order.

    A crossing is a position in the node's span, other than its entry,
    where ``corner`` allows a turn.  Returns node indices and crossing
    positions as parallel arrays, ascending positions within a node.
    """
    lens = f_hi - f_lo + 1
    parent = np.repeat(np.arange(lens.size), lens)
    cross = np.arange(parent.size) + np.repeat(f_lo - (np.cumsum(lens) - lens), lens)
    ok = corner[f_track[parent], cross]
    ok &= cross != f_entry[parent]
    return parent[ok], cross[ok]


class MBFSearch:
    """One two-terminal search instance.

    Parameters
    ----------
    grid:
        The occupancy grid (the stored TIG).
    net_id:
        The routing net; its own wiring and reserved terminals count as
        usable space.
    source, target:
        The connection's terminals (TIG edges).
    region:
        Optional ``(v_interval, h_interval)`` *index-space* bounding
        region; it is expanded, if necessary, to contain both
        terminals.
    max_depth:
        Upper bound on corners considered (default 12).
    max_nodes:
        Safety cap on Path Selection Tree size; exceeded searches
        report ``aborted`` (default 250_000).
    max_entries_per_track:
        Cap on same-level duplicate entries kept per track; keeps the
        PSTs small while retaining path diversity (default 8).
    """

    def __init__(
        self,
        grid: RoutingGrid,
        net_id: int,
        source: GridTerminal,
        target: GridTerminal,
        region: tuple[Interval, Interval] | None = None,
        max_depth: int = 12,
        max_nodes: int = 250_000,
        max_entries_per_track: int = 8,
    ) -> None:
        self.grid = grid
        self.net_id = net_id
        self.source = source
        self.target = target
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.max_entries_per_track = max_entries_per_track
        if region is None:
            v_iv = Interval(0, grid.num_vtracks - 1)
            h_iv = Interval(0, grid.num_htracks - 1)
        else:
            v_iv, h_iv = region
            v_iv = grid.vtracks.clip_indices(
                v_iv.hull(Interval.spanning(source.v_idx, target.v_idx))
            )
            h_iv = grid.htracks.clip_indices(
                h_iv.hull(Interval.spanning(source.h_idx, target.h_idx))
            )
        self.v_region = v_iv
        self.h_region = h_iv
        self._nodes_created = 0
        self._aborted = False

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run both searches and keep the global minimum-corner leaves.

        The region's usability is read from the grid once, here, and
        both searches work on that window.  Search effort is tallied
        locally (``self._nodes_created``) and reported to the
        instrumentation collector in one batch, so the level loop
        carries no observability cost.
        """
        roots: list[PSTNode] = []
        all_leaves: list[tuple[int, list[PSTNode]]] = []
        best_depth: int | None = None
        with instrument.span(SPAN_MBFS_SEARCH):
            v_lo, h_lo = self.v_region.lo, self.h_region.lo
            h_ok, v_ok, corner_ok = self.grid.usable_window(
                self.net_id, self.v_region, self.h_region
            )
            tv, th = self.target.v_idx - v_lo, self.target.h_idx - h_lo
            window = {
                VERTICAL: _Tracks(v_lo, (tv, th), v_ok.T, corner_ok.T),
                HORIZONTAL: _Tracks(h_lo, (th, tv), h_ok, corner_ok),
            }
            for kind in (VERTICAL, HORIZONTAL):
                limit = self.max_depth if best_depth is None else best_depth
                root, leaves, depth = self._single_search(window, kind, limit)
                if root is not None:
                    roots.append(root)
                if depth is not None:
                    all_leaves.append((depth, leaves))
                    best_depth = (
                        depth if best_depth is None else min(best_depth, depth)
                    )
        leaves = [
            leaf for depth, group in all_leaves if depth == best_depth for leaf in group
        ]
        inst = instrument.active()
        if inst.enabled:
            inst.count(MBFS_SEARCHES)
            inst.count(MBFS_NODES_EXPANDED, self._nodes_created)
            if self._aborted:
                inst.count(MBFS_ABORTS)
        return SearchResult(
            source=self.source,
            target=self.target,
            roots=roots,
            leaves=leaves,
            min_corners=best_depth,
            nodes_created=self._nodes_created,
            aborted=self._aborted,
        )

    # ------------------------------------------------------------------
    def _single_search(
        self, window: dict[str, _Tracks], root_kind: str, depth_limit: int
    ) -> tuple[PSTNode | None, list[PSTNode], int | None]:
        """One MBFS from one of the source's two tracks, a level at a time.

        Each level turns every frontier node onto every usable crossing
        of its span at once.  A crossing track other than the target's
        is entered only at the first level that reaches it, by at most
        ``max_entries_per_track`` nodes: the first ones in (parent,
        crossing) order, which is the order a node-at-a-time expansion
        creates them in, so a stable rank per track reproduces it.
        """
        kind, other = root_kind, _OTHER[root_kind]
        here = window[kind]
        if kind == VERTICAL:
            track, entry = self.source.v_idx, self.source.h_idx
        else:
            track, entry = self.source.h_idx, self.source.v_idx
        span_off = window[other].offset
        # Frontier arrays, window-local: track, entry position, span.
        f_track = np.array([track - here.offset])
        f_entry = np.array([entry - span_off])
        if not here.runs.usable[f_track[0], f_entry[0]]:
            return None, [], None
        f_lo, f_hi = here.runs.around(f_track, f_entry)
        root = PSTNode(
            kind=kind,
            track=track,
            entry=entry,
            span=Interval(int(f_lo[0]) + span_off, int(f_hi[0]) + span_off),
            parent=None,
            depth=0,
        )
        self._nodes_created += 1
        # visited[kind][t]: level at which window track t was first
        # reached (-1: never); target tracks are exempt and not recorded.
        visited = {k: np.full(window[k].corner.shape[0], -1) for k in window}
        visited[kind][f_track[0]] = 0
        goal_track, goal_pos = here.goal
        if f_track[0] == goal_track and f_lo[0] <= goal_pos <= f_hi[0]:
            return root, [root], 0
        frontier: list[PSTNode] = [root]
        level = 0
        while frontier and level < depth_limit:
            level += 1
            kind, other = other, kind
            # The level's (parent, crossing) pairs, in that order, a
            # bounded slice of the frontier at a time; only the kept
            # ones are gathered.
            seen, (goal_track, goal_pos) = visited[kind], window[kind].goal
            entered = np.zeros(seen.size, dtype=np.int64)
            kept = []
            for a, b in _slices(f_hi - f_lo + 1, _PAIRS_PER_PASS):
                parent, cross = _pairs(
                    window[other].corner, f_track[a:b], f_entry[a:b], f_lo[a:b], f_hi[a:b]
                )
                keep = self._admit(cross, goal_track, seen, entered, level)
                kept.append((parent[keep] + a, cross[keep]))
            parent = np.concatenate([p for p, _ in kept])
            cross = np.concatenate([c for _, c in kept])
            if parent.size and self._nodes_created + parent.size > self.max_nodes:
                # A node-at-a-time expansion stops at the child that
                # first exceeds the budget; build exactly that prefix.
                made = max(self._nodes_created, self.max_nodes) + 1 - self._nodes_created
                parent, cross = parent[:made], cross[:made]
                self._aborted = True
            entry_pos = f_track[parent]
            lo, hi = window[kind].runs.around(cross, entry_pos)
            children = self._make_children(window, kind, level, frontier, parent, cross, lo, hi)
            self._nodes_created += len(children)
            if self._aborted:
                return root, [], None
            done = np.flatnonzero((cross == goal_track) & (lo <= goal_pos) & (goal_pos <= hi))
            if done.size:
                return root, [children[i] for i in done.tolist()], level
            frontier = children
            f_track, f_entry, f_lo, f_hi = cross, entry_pos, lo, hi
        return root, [], None

    def _admit(
        self,
        cross: np.ndarray,
        goal_track: int,
        seen: np.ndarray,
        entered: np.ndarray,
        level: int,
    ) -> np.ndarray:
        """Which crossings become children; updates ``seen`` and ``entered``.

        The target track is always entered.  Any other track only when
        no earlier level reached it, and by its first
        ``max_entries_per_track`` crossings in level order;
        ``entered`` counts this level's entries per track so far.
        """
        on_goal = cross == goal_track
        mark = seen[cross]
        keep = on_goal | (mark < 0) | (mark == level)
        capped = np.flatnonzero(keep & ~on_goal)
        if capped.size:
            # A stable sort of small unsigned ints is a radix sort.
            tracks = cross[capped]
            order = np.argsort(tracks.astype(np.min_scalar_type(seen.size)), kind="stable")
            tracks = tracks[order]
            first = np.ones(tracks.size, dtype=bool)
            first[1:] = tracks[1:] != tracks[:-1]
            at = np.arange(tracks.size)
            rank = at - np.maximum.accumulate(np.where(first, at, 0)) + entered[tracks]
            admitted = rank < self.max_entries_per_track
            keep[capped[order[~admitted]]] = False
            tracks = tracks[admitted]
            seen[tracks] = level
            entered += np.bincount(tracks, minlength=entered.size)
        return keep

    @staticmethod
    def _make_children(
        window: dict[str, _Tracks],
        kind: str,
        depth: int,
        frontier: list[PSTNode],
        parent: np.ndarray,
        track: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> list[PSTNode]:
        """PST nodes for window-local ``(parent, track, span)`` rows, in order.

        Each child enters its track at its parent's track and is
        appended to the parent's children.
        """
        if not parent.size:
            return []
        track_off = window[kind].offset
        span_off = window[_OTHER[kind]].offset
        # Children on one track run share a span: build each Interval once.
        stride = int(hi.max()) + 1
        keys, which = np.unique(lo * stride + hi, return_inverse=True)
        spans = [
            Interval(a + span_off, b + span_off)
            for a, b in zip((keys // stride).tolist(), (keys % stride).tolist())
        ]
        children: list[PSTNode] = []
        append = children.append
        for p, t, j in zip(parent.tolist(), (track + track_off).tolist(), which.tolist()):
            node = frontier[p]
            child = PSTNode(kind, t, node.track, spans[j], node, depth, [])
            node.children.append(child)
            append(child)
        return children


# ----------------------------------------------------------------------
# Path reconstruction
# ----------------------------------------------------------------------
def candidate_paths(
    result: SearchResult, grid: RoutingGrid
) -> list[CandidatePath]:
    """Geometric candidates for every minimum-corner leaf.

    Each candidate's point list runs source, corners..., target with
    consecutive points axis-aligned; duplicate consecutive points
    (a corner coinciding with a terminal) are merged.
    """
    out: list[CandidatePath] = []
    src = result.source.position(grid)
    dst = result.target.position(grid)
    for leaf in result.leaves:
        chain = leaf.chain()
        corners: list[tuple[int, int]] = []
        for parent, child in zip(chain, chain[1:]):
            if parent.kind == VERTICAL:
                corners.append((parent.track, child.track))
            else:
                corners.append((child.track, parent.track))
        points: list[Point] = [src]
        for v_idx, h_idx in corners:
            x, y = grid.coord_of(v_idx, h_idx)
            points.append(Point(x, y))
        points.append(dst)
        deduped = [points[0]]
        for p in points[1:]:
            if p != deduped[-1]:
                deduped.append(p)
        length = sum(a.manhattan_to(b) for a, b in zip(deduped, deduped[1:]))
        out.append(
            CandidatePath(points=deduped, corners=corners, length=length, leaf=leaf)
        )
    return out
