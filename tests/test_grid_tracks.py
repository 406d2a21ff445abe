"""Tests for repro.grid.tracks."""

import pytest

from repro.geometry import Interval
from repro.grid import TrackSet


class TestTrackSetConstruction:
    def test_sorted_deduped(self):
        ts = TrackSet([5, 1, 3, 3, 1])
        assert list(ts) == [1, 3, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TrackSet([])

    def test_uniform_includes_endpoints(self):
        ts = TrackSet.uniform(0, 25, 10)
        assert list(ts) == [0, 10, 20, 25]

    def test_uniform_exact_fit(self):
        ts = TrackSet.uniform(0, 20, 10)
        assert list(ts) == [0, 10, 20]

    def test_uniform_with_extra(self):
        ts = TrackSet.uniform(0, 30, 10, extra=[7, 13])
        assert list(ts) == [0, 7, 10, 13, 20, 30]

    def test_uniform_extra_outside_rejected(self):
        with pytest.raises(ValueError):
            TrackSet.uniform(0, 30, 10, extra=[35])

    def test_uniform_bad_args(self):
        with pytest.raises(ValueError):
            TrackSet.uniform(0, 30, 0)
        with pytest.raises(ValueError):
            TrackSet.uniform(30, 0, 10)


class TestTrackSetQueries:
    def test_index_of(self):
        ts = TrackSet([0, 10, 20])
        assert ts.index_of(10) == 1
        with pytest.raises(KeyError):
            ts.index_of(15)

    def test_has(self):
        ts = TrackSet([0, 10])
        assert ts.has(10) and not ts.has(5)

    def test_index_range(self):
        ts = TrackSet([0, 8, 16, 24, 32])
        assert list(ts.index_range(8, 24)) == [1, 2, 3]
        assert list(ts.index_range(9, 15)) == []
        assert list(ts.index_range(-5, 100)) == [0, 1, 2, 3, 4]

    def test_clip_indices(self):
        ts = TrackSet([0, 8, 16])
        assert ts.clip_indices(Interval(-4, 99)) == Interval(0, 2)

    def test_distance(self):
        ts = TrackSet([0, 8, 20])
        assert ts.distance(0, 2) == 20
        assert ts.distance(2, 1) == 12

    def test_span(self):
        ts = TrackSet([3, 8, 20])
        assert ts.span == Interval(3, 20)
