"""Tests for the Steiner-Prim multi-terminal builder (core grid form)."""

import random

import pytest

from repro.geometry import Point
from repro.grid import TrackSet
from repro.core.steiner import SteinerTreeBuilder
from repro.core.tig import TrackIntersectionGraph


def make_tig(n=11):
    ts = TrackSet(range(0, n * 10, 10))
    return TrackIntersectionGraph(ts, TrackSet(range(0, n * 10, 10)))


class TestBuilderBasics:
    def test_needs_two_terminals(self):
        tig = make_tig()
        t = tig.register_net(1, [Point(0, 0)])
        with pytest.raises(ValueError):
            SteinerTreeBuilder(tig.grid, 1, t)

    def test_start_near_centroid(self):
        tig = make_tig()
        terms = tig.register_net(
            1, [Point(0, 0), Point(100, 0), Point(50, 100), Point(50, 50)]
        )
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        # The centroid-nearest terminal (50,50) is connected first, so
        # it is not among the remaining sources.
        first = builder.next_source()
        assert first.position(tig.grid) != Point(50, 50)

    def test_next_source_is_nearest(self):
        tig = make_tig()
        terms = tig.register_net(1, [Point(50, 50), Point(60, 50), Point(0, 100)])
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        src = builder.next_source()
        assert src.position(tig.grid) == Point(60, 50)

    def test_commit_progresses_to_done(self):
        tig = make_tig()
        terms = tig.register_net(1, [Point(0, 0), Point(50, 0), Point(100, 0)])
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        while not builder.done:
            src = builder.next_source()
            targets = builder.attach_candidates(src)
            assert targets, "connected terminals must always be offered"
            dst = targets[0]
            builder.commit(src, [src.position(tig.grid), dst.position(tig.grid)])
        assert builder.done
        assert not builder.failed_terminals

    def test_fail_records_terminal(self):
        tig = make_tig()
        terms = tig.register_net(1, [Point(0, 0), Point(50, 0)])
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        src = builder.next_source()
        builder.fail(src)
        assert builder.done
        assert builder.failed_terminals == [src]


class TestSteinerPoints:
    def test_attach_candidates_include_steiner_point(self):
        """A terminal near the middle of a routed trunk should be
        offered a Steiner attach point on the trunk, closer than any
        terminal."""
        tig = make_tig()
        terms = tig.register_net(
            1, [Point(0, 50), Point(100, 50), Point(50, 0)]
        )
        a = next(t for t in terms if t.position(tig.grid) == Point(0, 50))
        b = next(t for t in terms if t.position(tig.grid) == Point(100, 50))
        c = next(t for t in terms if t.position(tig.grid) == Point(50, 0))
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        # Force the component state: ends connected by a trunk at y=50.
        builder._connected = [a]
        builder._remaining = [b, c]
        builder.commit(b, [a.position(tig.grid), b.position(tig.grid)])
        tig.grid.occupy_h(5, 0, 10, net_id=1)  # realise the trunk
        src = builder.next_source()
        assert src.position(tig.grid) == Point(50, 0)
        best = builder.attach_candidates(src)[0]
        assert best.position(tig.grid) == Point(50, 50)

    def test_blocked_steiner_point_skipped(self):
        tig = make_tig()
        terms = tig.register_net(1, [Point(0, 50), Point(100, 50), Point(50, 0)])
        a = next(t for t in terms if t.position(tig.grid) == Point(0, 50))
        b = next(t for t in terms if t.position(tig.grid) == Point(100, 50))
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        builder._connected = [a]
        builder._remaining = [t for t in terms if t != a]
        builder.commit(b, [a.position(tig.grid), b.position(tig.grid)])
        tig.grid.occupy_h(5, 0, 10, net_id=1)
        # A foreign vertical through (50,50) blocks the corner there.
        tig.grid.occupy_v(5, 4, 6, net_id=9)
        src = builder.next_source()
        candidates = builder.attach_candidates(src)
        positions = [c.position(tig.grid) for c in candidates]
        assert Point(50, 50) not in positions
        # Fallback terminals still offered.
        assert positions, "must offer fallbacks"

    def test_candidates_sorted_by_distance(self):
        tig = make_tig()
        terms = tig.register_net(
            1, [Point(0, 0), Point(100, 0), Point(20, 30)]
        )
        builder = SteinerTreeBuilder(tig.grid, 1, terms)
        a = next(t for t in terms if t.position(tig.grid) == Point(0, 0))
        b = next(t for t in terms if t.position(tig.grid) == Point(100, 0))
        builder._connected = [a, b]
        builder._remaining = [t for t in terms if t.position(tig.grid) == Point(20, 30)]
        builder._tree_segments = []
        src = builder.next_source()
        cands = builder.attach_candidates(src)
        dists = [src.position(tig.grid).manhattan_to(c.position(tig.grid)) for c in cands]
        assert dists == sorted(dists)


def rectilinear_mst_length(points):
    dist = {p: p.manhattan_to(points[0]) for p in points[1:]}
    total = 0
    while dist:
        nearest = min(dist, key=lambda p: (dist[p], p))
        total += dist.pop(nearest)
        for p in dist:
            dist[p] = min(dist[p], p.manhattan_to(nearest))
    return total


class TestMSTBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_longer_than_mst(self, seed):
        """Committing horizontal-first L-shapes to the nearest attach
        candidate never yields a tree longer than the terminal MST: a
        connected terminal is always among the candidates."""
        rng = random.Random(seed)
        tig = make_tig(n=41)
        for _ in range(40):
            pts = list(dict.fromkeys(
                Point(rng.randrange(0, 410, 10), rng.randrange(0, 410, 10))
                for _ in range(rng.randint(2, 8))
            ))
            if len(pts) < 2:
                continue
            builder = SteinerTreeBuilder(tig.grid, 1, tig.register_net(1, pts))
            length = 0
            while not builder.done:
                source = builder.next_source()
                attach = builder.attach_candidates(source)[0].position(tig.grid)
                end = source.position(tig.grid)
                builder.commit(source, [attach, Point(end.x, attach.y), end])
                length += attach.manhattan_to(end)
            assert length <= rectilinear_mst_length(pts)
