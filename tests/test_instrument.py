"""Tests for the ``repro.instrument`` observability subsystem."""

import csv
import io
import json

import pytest

from repro import instrument
from repro.instrument import names
from repro.geometry import Rect
from repro.netlist import Design, Edge
from repro.core import LevelBRouter

from conftest import make_toy_design


def make_tiny_design():
    """One two-pin net between two cells: a fully deterministic route."""
    d = Design("tiny")
    c0 = d.add_cell("c0", 40, 32)
    c0.place(8, 8)
    c1 = d.add_cell("c1", 40, 32)
    c1.place(80, 80)
    p0 = d.add_pin("c0", "p0", Edge.TOP, 8)
    p1 = d.add_pin("c1", "p1", Edge.BOTTOM, 16)
    net = d.add_net("n0")
    net.add_pin(p0)
    net.add_pin(p1)
    return d, net


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with instrument.collecting() as col, instrument.span("a"):
            with instrument.span("b"):
                pass
            with instrument.span("c"):
                pass
        a = col.root.find("a")
        assert a is not None and a.calls == 1
        assert set(a.children) == {"b", "c"}
        assert col.root.find("a", "b").calls == 1

    def test_repeated_spans_aggregate_by_name(self):
        with instrument.collecting() as col:
            for _ in range(5):
                with instrument.span("x"):
                    pass
        assert col.root.find("x").calls == 5
        assert len(col.root.children) == 1

    def test_reentrant_same_name_nests_as_child(self):
        with (
            instrument.collecting() as col,
            instrument.span("x"),
            instrument.span("x"),
        ):
            pass
        outer = col.root.find("x")
        assert outer.calls == 1
        assert outer.find("x").calls == 1

    def test_parent_time_covers_children(self):
        with (
            instrument.collecting() as col,
            instrument.span("outer"),
            instrument.span("inner"),
        ):
            sum(range(1000))
        outer = col.root.find("outer")
        inner = outer.find("inner")
        assert outer.total_s >= inner.total_s > 0.0
        assert outer.self_s == pytest.approx(
            outer.total_s - inner.total_s
        )

    def test_span_measures_elapsed_even_when_disabled(self):
        assert not instrument.enabled()
        with instrument.span("unrecorded") as sp:
            sum(range(1000))
        assert sp.elapsed_s > 0.0

    def test_collecting_restores_previous_collector(self):
        before = instrument.active()
        with instrument.collecting() as col:
            assert instrument.active() is col
            with instrument.collecting() as inner:
                assert instrument.active() is inner
            assert instrument.active() is col
        assert instrument.active() is before


class TestCountersAndEvents:
    def test_counts_accumulate(self):
        with instrument.collecting() as col:
            instrument.count("k")
            instrument.count("k", 4)
        assert col.counters["k"] == 5

    def test_declare_registers_zero(self):
        with instrument.collecting() as col:
            col.declare("never.fired")
        assert col.counters["never.fired"] == 0

    def test_gauge_overwrites(self):
        with instrument.collecting() as col:
            instrument.gauge("g", 1.5)
            instrument.gauge("g", 2.5)
        assert col.gauges["g"] == 2.5

    def test_events_are_ordered(self):
        with instrument.collecting() as col:
            instrument.event("first", x=1)
            instrument.event("second", y="z")
        assert [e["event"] for e in col.events] == ["first", "second"]
        assert [e["seq"] for e in col.events] == [1, 2]

    def test_disabled_collector_records_nothing(self):
        null = instrument.active()
        assert not null.enabled
        instrument.count("dropped", 100)
        instrument.gauge("dropped.gauge", 1.0)
        instrument.event("dropped.event")
        null.declare("dropped.declared")
        assert null.counters == {}
        assert null.gauges == {}
        assert null.events == []


class TestRouterCounters:
    def test_exact_mbfs_node_count_on_tiny_route(self):
        _, net = make_tiny_design()
        with instrument.collecting() as col:
            result = LevelBRouter(Rect(0, 0, 160, 160), [net]).route()
        assert result.completion_rate == 1.0
        # The counter must agree with the router's own accounting, and
        # the route is small enough to pin the exact expansion count.
        assert col.counters[names.MBFS_NODES_EXPANDED] == result.nodes_created
        assert col.counters[names.MBFS_NODES_EXPANDED] == 33
        assert col.counters[names.MAZE_FALLBACKS] == 0
        assert col.counters[names.NETS_ROUTED] == 1
        assert col.counters[names.NETS_FAILED] == 0
        assert col.counters[names.CONNECTIONS_ROUTED] == 1
        assert col.counters[names.OCC_CELLS_TOUCHED] > 0
        assert [e["event"] for e in col.events] == [names.EVT_NET_ROUTED]

    def test_ami33_search_work_is_pinned(self):
        """The overcell flow's MBFS work on ami33, exactly.

        Digests can survive a search change that explores differently;
        these counts cannot.
        """
        from repro.bench_suite import ami33_like
        from repro.flow import overcell_flow

        with instrument.collecting() as col:
            overcell_flow(ami33_like())
        assert col.counters[names.MBFS_SEARCHES] == 176
        assert col.counters[names.MBFS_NODES_EXPANDED] == 107749

    def test_toy_design_counter_matches_router_accounting(self):
        design = make_toy_design()
        with instrument.collecting() as col:
            result = LevelBRouter(
                Rect(0, 0, 256, 256), list(design.nets.values())
            ).route()
        assert col.counters[names.MAZE_FALLBACKS] == 0
        assert col.counters[names.MBFS_NODES_EXPANDED] == result.nodes_created
        assert col.counters[names.NETS_ROUTED] == result.nets_completed

    def test_elapsed_comes_from_span_tree(self):
        _, net = make_tiny_design()
        with instrument.collecting() as col:
            result = LevelBRouter(Rect(0, 0, 160, 160), [net]).route()
        node = col.root.find(names.SPAN_LEVELB_ROUTE)
        assert node is not None and node.calls == 1
        assert node.total_s == pytest.approx(result.elapsed_s)
        assert node.find(names.SPAN_LEVELB_NET).calls == 1

    def test_collection_does_not_change_routing(self):
        _, net_a = make_tiny_design()
        plain = LevelBRouter(Rect(0, 0, 160, 160), [net_a]).route()
        _, net_b = make_tiny_design()
        with instrument.collecting():
            collected = LevelBRouter(Rect(0, 0, 160, 160), [net_b]).route()
        assert plain.total_wire_length == collected.total_wire_length
        assert plain.total_vias == collected.total_vias
        # With collection off the router must still time itself.
        assert plain.elapsed_s > 0.0


class TestChannelCounters:
    def test_vcg_cycle_counts_and_logs(self):
        from repro.channels import (
            ChannelProblem,
            ChannelRoutingError,
            LeftEdgeRouter,
        )

        problem = ChannelProblem(top=[1, 2], bottom=[2, 1])
        with instrument.collecting() as col, pytest.raises(ChannelRoutingError):
            LeftEdgeRouter().route(problem)
        assert col.counters[names.VCG_CYCLES] == 1
        assert col.events[0]["event"] == names.EVT_CHANNEL_CYCLIC

    def test_greedy_channel_counters(self):
        from repro.channels import GreedyChannelRouter

        from conftest import make_random_channel_problem

        problem = make_random_channel_problem(length=12, num_nets=5, seed=3)
        with instrument.collecting() as col:
            GreedyChannelRouter().route(problem)
        assert col.counters[names.GREEDY_COLUMNS] >= 12
        assert col.root.find(names.SPAN_CHANNEL_GREEDY).calls == 1


class TestExporters:
    def _collected_route(self):
        _, net = make_tiny_design()
        with instrument.collecting() as col:
            LevelBRouter(Rect(0, 0, 160, 160), [net]).route()
        return col

    def test_snapshot_round_trip(self):
        col = self._collected_route()
        doc = instrument.snapshot(col)
        rebuilt = instrument.profile_from_dict(doc)
        assert instrument.snapshot(rebuilt) == doc

    def test_snapshot_without_events_keeps_total(self):
        col = self._collected_route()
        doc = instrument.snapshot(col, include_events=False)
        assert "events" not in doc
        assert doc["events_total"] == len(col.events)

    def test_json_export_parses(self):
        col = self._collected_route()
        doc = json.loads(instrument.to_json(col))
        assert doc["format"] == instrument.PROFILE_FORMAT
        assert doc["spans"]["name"] == "root"

    def test_profile_from_dict_rejects_other_formats(self):
        with pytest.raises(ValueError):
            instrument.profile_from_dict({"format": "something-else"})

    def test_counters_csv(self):
        col = self._collected_route()
        rows = list(csv.reader(io.StringIO(instrument.counters_to_csv(col))))
        assert rows[0] == ["counter", "value"]
        table = {name: value for name, value in rows[1:]}
        assert int(table[names.MBFS_NODES_EXPANDED]) == 33

    def test_spans_csv_paths(self):
        col = self._collected_route()
        rows = list(csv.reader(io.StringIO(instrument.spans_to_csv(col))))
        paths = [r[0] for r in rows[1:]]
        assert names.SPAN_LEVELB_ROUTE in paths
        assert f"{names.SPAN_LEVELB_ROUTE}/{names.SPAN_LEVELB_NET}" in paths

    def test_events_csv(self):
        col = self._collected_route()
        rows = list(csv.reader(io.StringIO(instrument.events_to_csv(col))))
        assert rows[0] == ["seq", "event", "data"]
        assert rows[1][1] == names.EVT_NET_ROUTED

    def test_tree_report_mentions_spans_and_counters(self):
        col = self._collected_route()
        report = instrument.tree_report(col)
        assert names.SPAN_LEVELB_ROUTE in report
        assert names.MBFS_NODES_EXPANDED in report
        assert "events: 1 recorded" in report


class TestFlowProfile:
    def test_flow_attaches_profile_only_when_collecting(self):
        from repro.bench_suite import random_design
        from repro.flow import two_layer_flow

        design = random_design("inst", seed=3, num_cells=6, num_nets=10,
                               num_critical=1)
        plain = two_layer_flow(design)
        assert plain.profile is None
        design = random_design("inst", seed=3, num_cells=6, num_nets=10,
                               num_critical=1)
        with instrument.collecting():
            collected = two_layer_flow(design)
        assert collected.profile is not None
        assert collected.profile["format"] == instrument.PROFILE_FORMAT
        assert collected.profile["spans"]["children"][0]["name"] == (
            names.SPAN_FLOW_TWO_LAYER
        )
        assert plain.wire_length == collected.wire_length
        assert plain.via_count == collected.via_count


class TestProfileCli:
    def test_profile_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "p.json"
        rc = main([
            "profile", "--suite", "ami33", "--flow", "overcell",
            "--out", str(out), "--csv", str(tmp_path / "prof"),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == instrument.PROFILE_FORMAT
        flow_span = doc["spans"]["children"][0]
        assert flow_span["name"] == names.SPAN_FLOW_OVERCELL
        assert flow_span["total_s"] > 0.0
        for key in (
            names.MBFS_NODES_EXPANDED,
            names.PST_BACKTRACK_STEPS,
            names.REGION_EXPANSIONS,
            names.MAZE_FALLBACKS,
            names.RIPUPS,
            names.NETS_ROUTED,
        ):
            assert key in doc["counters"]
        assert doc["counters"][names.MBFS_NODES_EXPANDED] > 0
        assert (tmp_path / "prof.counters.csv").exists()
        assert (tmp_path / "prof.spans.csv").exists()
        assert (tmp_path / "prof.events.csv").exists()
        assert "span tree" in capsys.readouterr().out

    def test_profile_leaves_global_collector_disabled(self, tmp_path):
        from repro.cli import main

        main([
            "profile", "--suite", "ami33", "--out", str(tmp_path / "p.json"),
        ])
        assert not instrument.enabled()
