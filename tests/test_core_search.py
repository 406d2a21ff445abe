"""Tests for the modified breadth-first search and Path Selection Trees.

These encode the paper's Figure 1 / Figure 2 semantics: corner
accounting (``(v2,h4,v6)`` is a one-corner path), the one-visit-per-
track rule with target-vertex exemption, duplicate same-level tree
nodes, and bounded-region behaviour.  A Lee/Dijkstra corner oracle
verifies minimum-corner optimality on randomized instances.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Interval, Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.core import search as search_module
from repro.core.search import MBFSearch, candidate_paths
from repro.core.tig import GridTerminal, TrackIntersectionGraph
from repro.maze.lee import lee_search

from conftest import make_figure1_instance


def fresh_tig(nv=6, nh=5):
    return TrackIntersectionGraph(
        TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10))
    )


def run_search(tig, net_id, **kw):
    a, b = tig.terminals_of(net_id)
    return MBFSearch(tig.grid, net_id, a, b, **kw).run()


class TestCornerAccounting:
    def test_straight_vertical_zero_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(20, 0), Point(20, 40)])
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_straight_horizontal_zero_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_l_connection_one_corner(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        assert res.min_corners == 1
        # Both L orientations exist on an empty grid.
        assert len(res.leaves) == 2

    def test_figure1_path_sequence(self):
        """The paper's worked example: net B routes as (v2, h4, v6)."""
        tig, nets = make_figure1_instance()
        net_id, (a, b) = nets["B"]
        res = MBFSearch(tig.grid, net_id, a, b).run()
        assert res.min_corners == 1
        sequences = {tuple(leaf.track_sequence()) for leaf in res.leaves}
        # One of the minimum-corner leaves is the v2-then-h4 path.
        assert ("v2", "h4") in sequences

    def test_blocked_l_needs_two_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        # Block both L corners for net 1.
        tig.add_obstacle(Rect(40, 10, 40, 10))
        tig.add_obstacle(Rect(10, 30, 10, 30))
        res = run_search(tig, 1)
        assert res.min_corners == 2


class TestPathGeometry:
    def test_candidates_connect_terminals(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        for cand in candidate_paths(res, tig.grid):
            assert cand.points[0] == Point(10, 10)
            assert cand.points[-1] == Point(40, 30)
            for p, q in zip(cand.points, cand.points[1:]):
                assert p.is_aligned_with(q)

    def test_candidate_corner_count_matches_depth(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        for cand in candidate_paths(res, tig.grid):
            assert cand.corner_count == res.min_corners

    def test_candidate_length_is_point_sum(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 0), Point(50, 40)])
        res = run_search(tig, 1)
        for cand in candidate_paths(res, tig.grid):
            total = sum(
                a.manhattan_to(b) for a, b in zip(cand.points, cand.points[1:])
            )
            assert cand.length == total
            assert cand.length >= Point(0, 0).manhattan_to(Point(50, 40))


class TestObstaclesAndOccupancy:
    def test_obstacle_avoided(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.add_obstacle(Rect(20, 20, 30, 20))  # blocks the straight shot
        res = run_search(tig, 1)
        assert res.found
        assert res.min_corners == 2

    def test_foreign_wire_blocks_span(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.grid.occupy_h(2, 2, 3, net_id=9)  # net 9 trunk on h3
        res = run_search(tig, 1)
        assert res.found
        assert res.min_corners == 2

    def test_own_wire_is_usable_space(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.grid.occupy_h(2, 2, 3, net_id=1)  # net 1's own trunk
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_crossing_foreign_vertical_is_free(self):
        """Different-layer crossings do not block (reserved-layer model)."""
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.grid.occupy_v(3, 0, 4, net_id=9)  # full-height foreign vertical
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_fully_walled_terminal_fails(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(20, 20), Point(50, 40)])
        # Wall in (20,20) on all four sides (terminal itself stays).
        tig.add_obstacle(Rect(10, 10, 30, 10))  # below
        tig.add_obstacle(Rect(10, 30, 30, 30))  # above
        tig.add_obstacle(Rect(10, 20, 10, 20))  # left
        tig.add_obstacle(Rect(30, 20, 30, 20))  # right
        res = run_search(tig, 1)
        assert not res.found


class TestSearchRegion:
    def test_region_limits_solution(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.add_obstacle(Rect(20, 20, 30, 20))
        # Tight region around the terminals' rows: the 2-corner detour
        # through other rows is outside, so the search fails.
        region = (Interval(0, 5), Interval(2, 2))
        res = MBFSearch(
            tig.grid, 1, *tig.terminals_of(1), region=region
        ).run()
        assert not res.found

    def test_region_expanded_to_contain_terminals(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 0), Point(50, 40)])
        # A region not containing the terminals is silently hulled.
        region = (Interval(2, 3), Interval(2, 3))
        res = MBFSearch(tig.grid, 1, *tig.terminals_of(1), region=region).run()
        assert res.found

    def test_max_depth_zero_blocks_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = MBFSearch(tig.grid, 1, *tig.terminals_of(1), max_depth=0).run()
        assert not res.found


class TestPSTStructure:
    def test_duplicate_same_level_nodes_allowed(self):
        """Figure 2: the same vertex may appear twice in one tree."""
        tig, nets = make_figure1_instance()
        net_id, (a, b) = nets["B"]
        res = MBFSearch(tig.grid, net_id, a, b).run()
        # Collect names per depth across both trees.
        for root in res.roots:
            stack = [root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert child.parent is node
                    assert child.depth == node.depth + 1
                    assert child.kind != node.kind  # alternation
                stack.extend(node.children)

    def test_two_roots_one_per_terminal_track(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        kinds = {r.kind for r in res.roots}
        assert kinds == {"V", "H"}

    def test_chain_and_sequence(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        leaf = res.leaves[0]
        chain = leaf.chain()
        assert chain[0].parent is None
        assert chain[-1] is leaf
        assert len(leaf.track_sequence()) == leaf.depth + 1


class TestMinCornerOptimality:
    """MBFS corner counts vs an exhaustive Lee corner oracle."""

    def oracle_corners(self, grid, net_id, a, b):
        # Huge via penalty makes Dijkstra lexicographically minimise
        # corner count before length.
        waypoints, corners, _ = lee_search(
            grid, net_id, a, b, via_penalty=10**9
        )
        if waypoints is None:
            return None
        return len(corners)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_on_random_obstacles(self, seed):
        rng = random.Random(seed)
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        for _ in range(6):
            x = rng.randrange(1, 7) * 10
            y = rng.randrange(1, 7) * 10
            with contextlib.suppress(ValueError):
                tig.add_obstacle(Rect(x, y, x + 10, y + 10))
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b).run()
        oracle = self.oracle_corners(tig.grid, 1, a, b)
        if oracle is None:
            assert not res.found
        elif res.found:
            assert res.min_corners == oracle
        # (MBFS may legitimately fail where the oracle succeeds: the
        # one-corner-per-track rule trades completeness for speed.)

    @pytest.mark.parametrize("seed", range(8))
    def test_committed_paths_stay_legal(self, seed):
        """Route several nets serially; every claimed cell must verify."""
        rng = random.Random(100 + seed)
        tig = fresh_tig(10, 10)
        pts = [Point(x * 10, y * 10) for x in range(10) for y in range(10)]
        rng.shuffle(pts)
        terms = {}
        for net_id in range(1, 6):
            pair = [pts.pop(), pts.pop()]
            terms[net_id] = tig.register_net(net_id, pair)
        for net_id, (a, b) in terms.items():
            res = MBFSearch(tig.grid, net_id, a, b).run()
            if not res.found:
                continue
            cand = candidate_paths(res, tig.grid)[0]
            tig.grid.commit_path(net_id, cand.points, cand.corners)
        # Invariant: every slot owner is a registered net or FREE.
        assert set(tig.grid.owners()) <= set(terms)


# ----------------------------------------------------------------------
# The level-batched search against a node-at-a-time reference
# ----------------------------------------------------------------------
def reference_mbfs(grid, net_id, source, target, v_iv, h_iv, max_depth, max_nodes, cap):
    """The MBFS rule one node at a time: ``(roots, leaves, min, created, aborted)``.

    Nodes are ``[kind, track, entry, span, depth, children, parent]`` lists.
    """
    created, aborted = 0, False
    goal = {"V": (target.v_idx, target.h_idx), "H": (target.h_idx, target.v_idx)}
    h_ok, v_ok, _ = grid.usable_window(net_id, v_iv, h_iv)

    def span_of(kind, track, entry):
        """The usable run through ``entry`` on a track, scanned cell by cell."""
        if kind == "V":
            lo, hi = h_iv.lo, h_iv.hi
            usable = [bool(v_ok[p - lo, track - v_iv.lo]) for p in range(lo, hi + 1)]
        else:
            lo, hi = v_iv.lo, v_iv.hi
            usable = [bool(h_ok[track - h_iv.lo, p - lo]) for p in range(lo, hi + 1)]
        if not usable[entry - lo]:
            return None
        a = b = entry
        while a > lo and usable[a - 1 - lo]:
            a -= 1
        while b < hi and usable[b + 1 - lo]:
            b += 1
        return Interval(a, b)

    def completes(node):
        return node[1] == goal[node[0]][0] and node[3].contains(goal[node[0]][1])

    def search(kind, limit):
        nonlocal created, aborted
        track, entry = (source.v_idx, source.h_idx) if kind == "V" else (source.h_idx, source.v_idx)
        span = span_of(kind, track, entry)
        if span is None:
            return None, [], None
        root = [kind, track, entry, span, 0, [], None]
        created += 1
        visited = {(kind, track): 0}
        if completes(root):
            return root, [root], 0
        frontier, level = [root], 0
        while frontier and level < limit:
            level += 1
            entries, nxt = {}, []
            for node in frontier:
                ckind = "H" if node[0] == "V" else "V"
                for cross in range(node[3].lo, node[3].hi + 1):
                    v, h = (node[1], cross) if node[0] == "V" else (cross, node[1])
                    if cross == node[2] or not grid.corner_free(v, h, net_id):
                        continue
                    key = (ckind, cross)
                    if cross != goal[ckind][0]:
                        if visited.get(key, level) < level or entries.get(key, 0) >= cap:
                            continue
                        visited.setdefault(key, level)
                        entries[key] = entries.get(key, 0) + 1
                    child = [ckind, cross, node[1], span_of(ckind, cross, node[1]), level, [], node]
                    node[5].append(child)
                    nxt.append(child)
                    created += 1
                    if created > max_nodes:
                        aborted = True
                        return root, [], None
            done = [c for c in nxt if completes(c)]
            if done:
                return root, done, level
            frontier = nxt
        return root, [], None

    roots, found, best = [], [], None
    for kind in ("V", "H"):
        root, leaves, depth = search(kind, max_depth if best is None else best)
        roots += [root] if root is not None else []
        if depth is not None:
            found.append((depth, leaves))
            best = depth if best is None else min(best, depth)
    leaves = [leaf for depth, group in found if depth == best for leaf in group]
    return roots, leaves, best, created, aborted


def pst_shape(node):
    """``(kind, track, entry, span, depth, children)`` of a PST, recursively."""
    if isinstance(node, list):
        kind, track, entry, span, depth, children, _ = node
    else:
        kind, track, entry, span, depth, children = (
            node.kind, node.track, node.entry, node.span, node.depth, node.children
        )
    return (kind, track, entry, (span.lo, span.hi), depth, [pst_shape(c) for c in children])


def reference_sequence(node):
    names = []
    while node is not None:
        names.append(f"{node[0].lower()}{node[1] + 1}")
        node = node[6]
    return names[::-1]


@st.composite
def search_cases(draw):
    nv, nh = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    v = st.integers(0, nv - 1)
    h = st.integers(0, nh - 1)
    ops = []
    for _ in range(draw(st.integers(0, 4))):
        ops.append(("obstacle", draw(v), draw(h), draw(st.sampled_from([(1, 1), (1, 0), (0, 1)]))))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["h", "v"]))
        track, (a, b) = (draw(h), sorted((draw(v), draw(v)))) if kind == "h" else (
            draw(v), sorted((draw(h), draw(h))))
        ops.append((kind, track, a, b, draw(st.sampled_from([1, 2, 3]))))
    wide = draw(st.sampled_from([None, 1, 2]))  # which net gets span 2, guard 1
    terminals = (draw(v), draw(h), draw(v), draw(h))
    region = None
    if draw(st.booleans()):
        margin = draw(st.integers(0, 3))
        sv, sh, tv, th = terminals
        region = (
            Interval(min(sv, tv) - margin, max(sv, tv) + margin),
            Interval(min(sh, th) - margin, max(sh, th) + margin),
        )
    cap = draw(st.sampled_from([1, 2, 8]))
    max_nodes = draw(st.sampled_from([1, 3, 8, 20, 60, 250_000]))
    # Small values make one level take several passes over the frontier.
    pairs_per_pass = draw(st.sampled_from([1, 5, search_module._PAIRS_PER_PASS]))
    return nv, nh, ops, wide, terminals, region, cap, max_nodes, pairs_per_pass


class TestBatchedMatchesNodeAtATime:
    """The level-at-a-time search builds the same PSTs as the serial rule."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_same_result_and_trees(self, case):
        nv, nh, ops, wide, (sv, sh, tv, th), region, cap, max_nodes, pairs_per_pass = case
        for backend in ("dense", "sparse"):
            grid = RoutingGrid(
                TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10)), backend
            )
            if wide is not None:
                grid.set_net_footprint(wide, 2, 1)
            for op in ops:
                with contextlib.suppress(ValueError):
                    if op[0] == "obstacle":
                        x, y = op[1] * 10, op[2] * 10
                        grid.add_obstacle(Rect(x, y, x, y), block_h=bool(op[3][0]), block_v=bool(op[3][1]))
                    elif op[0] == "h":
                        grid.occupy_h(*op[1:])
                    else:
                        grid.occupy_v(*op[1:])
            source, target = GridTerminal(sv, sh), GridTerminal(tv, th)
            search = MBFSearch(
                grid, 1, source, target, region=region,
                max_nodes=max_nodes, max_entries_per_track=cap,
            )
            with mock.patch.object(search_module, "_PAIRS_PER_PASS", pairs_per_pass):
                res = search.run()
            roots, leaves, best, created, aborted = reference_mbfs(
                grid, 1, source, target, search.v_region, search.h_region,
                search.max_depth, max_nodes, cap,
            )
            assert (res.min_corners, res.aborted, res.nodes_created) == (best, aborted, created)
            assert [pst_shape(r) for r in res.roots] == [pst_shape(r) for r in roots]
            assert [leaf.track_sequence() for leaf in res.leaves] == [
                reference_sequence(leaf) for leaf in leaves
            ]
