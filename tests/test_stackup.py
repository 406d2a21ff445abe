"""Data-driven technology rules: ingestion, width classes, objectives.

Covers the stackup ingestion path (``repro.technology.ingest``), the
width-class footprint model on the occupancy grid, the width-dependent
DRC rules, the via-minimization objective, and the serve protocol's
technology canonicalization — see docs/TECHNOLOGY.md.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LevelBRouter
from repro.geometry import Rect
from repro.grid import FREE, RoutingGrid, TrackSet
from repro.io import technology_from_dict, technology_to_dict
from repro.technology import (
    Layer,
    LayerStack,
    NetClass,
    RoutingDirection,
    Technology,
    WidthSpacingTuple,
    preset_stackup,
    technology_from_any,
    technology_from_stackup,
)

GOLDEN = Path(__file__).parent / "golden" / "stackup_wide.json"


def golden_stackup() -> dict:
    return json.loads(GOLDEN.read_text())


def golden_technology() -> Technology:
    return technology_from_any(golden_stackup())


# ----------------------------------------------------------------------
# LayerStack validation (regression: invalid stacks used to pass)
# ----------------------------------------------------------------------
def _raw_layer(index, name, direction, pitch, width):
    """A Layer bypassing its own validation, to probe LayerStack's."""
    layer = Layer.__new__(Layer)
    object.__setattr__(layer, "index", index)
    object.__setattr__(layer, "name", name)
    object.__setattr__(layer, "direction", direction)
    object.__setattr__(layer, "pitch", pitch)
    object.__setattr__(layer, "width", width)
    object.__setattr__(layer, "sheet_resistance", 0.07)
    object.__setattr__(layer, "cap_per_lambda", 0.20)
    object.__setattr__(layer, "min_width", None)
    object.__setattr__(layer, "spacing_table", ())
    return layer


class TestLayerStackValidation:
    def test_zero_pitch_rejected(self):
        bad = _raw_layer(1, "m1", RoutingDirection.VERTICAL, 0, 4)
        good = _raw_layer(2, "m2", RoutingDirection.HORIZONTAL, 8, 4)
        with pytest.raises(ValueError, match="pitch must be positive"):
            LayerStack(channel=(bad, good), planes=())

    def test_negative_pitch_rejected(self):
        good = _raw_layer(1, "m1", RoutingDirection.VERTICAL, 8, 4)
        bad = _raw_layer(2, "m2", RoutingDirection.HORIZONTAL, -8, 4)
        with pytest.raises(ValueError, match="pitch must be positive"):
            LayerStack(channel=(good, bad), planes=())

    def test_duplicate_layer_names_rejected(self):
        a = _raw_layer(1, "metal1", RoutingDirection.VERTICAL, 8, 4)
        b = _raw_layer(2, "metal1", RoutingDirection.HORIZONTAL, 8, 4)
        with pytest.raises(ValueError, match="duplicate layer name"):
            LayerStack(channel=(a, b), planes=())

    def test_valid_stack_from_technology(self):
        stack = LayerStack.from_technology(golden_technology())
        assert stack.num_planes == 2
        assert [l.name for l in stack.all_layers()] == [
            f"metal{i}" for i in range(1, 7)
        ]


# ----------------------------------------------------------------------
# Stackup ingestion (golden fixture + errors)
# ----------------------------------------------------------------------
class TestIngest:
    def test_golden_fixture_quantizes_to_lambda(self):
        tech = golden_technology()
        assert tech.name == "golden-6L"
        assert tech.num_layers == 6
        m3 = tech.layer(3)
        assert (m3.pitch, m3.width, m3.min_width) == (12, 6, 6)
        assert m3.spacing_table == (
            WidthSpacingTuple(0, 6),
            WidthSpacingTuple(18, 12),
            WidthSpacingTuple(30, 24),
        )
        assert [v.cost for v in tech.vias] == [1.0, 1.0, 2.0, 3.0, 4.0]

    def test_golden_fixture_guard_tracks(self):
        m3 = golden_technology().layer(3)
        assert [m3.guard_tracks(s) for s in (1, 2, 3)] == [0, 1, 2]

    def test_missing_width_defaults_to_half_pitch(self):
        tech = technology_from_stackup(
            {
                "metals": [
                    {"name": "m1", "index": 1, "direction": "vertical",
                     "pitch": 8},
                    {"name": "m2", "index": 2, "direction": "horizontal",
                     "pitch": 8},
                ]
            }
        )
        assert tech.layer(1).width == 4
        # Synthesized via: size follows the wider of the joined layers.
        assert tech.via(1).size == 4 and tech.via(1).cost == 1.0

    def test_off_grid_value_rejected(self):
        doc = golden_stackup()
        doc["metals"][0]["pitch"] = 0.41  # not a multiple of 0.05
        with pytest.raises(ValueError, match="not a multiple of grid_unit"):
            technology_from_stackup(doc)

    @pytest.mark.parametrize(
        "value",
        [float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["inf", "-inf", "nan", "huge-int"],
    )
    def test_non_finite_value_rejected(self, value):
        """JSON ``1e400`` parses to ``inf``; quantizing it used to raise
        ``OverflowError`` instead of a ``ValueError`` naming the field."""
        doc = golden_stackup()
        doc["metals"][2]["pitch"] = value
        with pytest.raises(ValueError, match="metal3 pitch must be finite"):
            technology_from_stackup(doc)

    @pytest.mark.parametrize("value", ["x", None, []], ids=["str", "null", "list"])
    @pytest.mark.parametrize(
        "section, pos", [("metals", 0), ("metals", 3), ("vias", 1)]
    )
    def test_non_object_entry_rejected(self, section, pos, value):
        """A metal or via entry that is not an object used to surface as
        an ``AttributeError`` from the index sort (an HTTP 500 in serve)."""
        doc = golden_stackup()
        doc[section][pos] = value
        with pytest.raises(ValueError, match=rf"{section}\[{pos}\] must be a JSON object"):
            technology_from_any(doc)

    def test_non_finite_grid_unit_rejected(self):
        doc = golden_stackup()
        doc["grid_unit"] = float("inf")
        with pytest.raises(ValueError, match="grid_unit must be finite"):
            technology_from_stackup(doc)

    def test_bad_direction_rejected(self):
        doc = golden_stackup()
        doc["metals"][0]["direction"] = "diagonal"
        with pytest.raises(ValueError, match="direction"):
            technology_from_stackup(doc)

    def test_missing_metals_rejected(self):
        with pytest.raises(ValueError, match="metals"):
            technology_from_stackup({"name": "empty"})

    def test_from_any_rejects_unknown_shapes(self):
        with pytest.raises(ValueError, match="unrecognized"):
            technology_from_any({"format": "whatever"})

    def test_from_any_accepts_repro_technology(self):
        doc = technology_to_dict(Technology.four_layer())
        assert technology_from_any(doc) == Technology.four_layer()

    def test_presets_are_stackup_instances(self):
        assert technology_from_stackup(preset_stackup(1)) == Technology.four_layer()
        assert (
            technology_from_stackup(preset_stackup(2))
            == Technology.with_overcell_planes(2)
        )


# ----------------------------------------------------------------------
# Property tests (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def spacing_tables(draw):
    """Valid spacing tables: start at width 0, strictly increasing."""
    n = draw(st.integers(0, 4))
    if n == 0:
        return ()
    widths = [0] + sorted(
        draw(
            st.lists(
                st.integers(1, 64), min_size=n - 1, max_size=n - 1, unique=True
            )
        )
    )
    spacings = draw(st.lists(st.integers(1, 48), min_size=n, max_size=n))
    return tuple(zip(widths, spacings))


class TestProperties:
    @given(
        pitch=st.integers(2, 32),
        rows=spacing_tables(),
        w1=st.integers(1, 96),
        w2=st.integers(1, 96),
    )
    @settings(max_examples=200, deadline=None)
    def test_spacing_lookup_monotonic_in_width(self, pitch, rows, w1, w2):
        layer = Layer(
            3, "m3", RoutingDirection.VERTICAL, pitch=pitch,
            width=max(1, pitch // 2),
            spacing_table=tuple(WidthSpacingTuple(*r) for r in rows),
        )
        lo, hi = sorted((w1, w2))
        assert layer.min_spacing_for(lo) <= layer.min_spacing_for(hi)

    @given(
        planes=st.integers(1, 3),
        min_widths=st.lists(st.integers(1, 6), min_size=0, max_size=4),
        rows=spacing_tables(),
        costs=st.lists(
            st.floats(0.25, 8.0, allow_nan=False), min_size=0, max_size=5
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_ingest_serialize_ingest_roundtrips(
        self, planes, min_widths, rows, costs
    ):
        doc = preset_stackup(planes)
        for i, mw in enumerate(min_widths[: len(doc["metals"])]):
            doc["metals"][i]["min_width"] = mw
            doc["metals"][i]["power_strap_widths_and_spacings"] = [
                {"width_at_least": w, "min_spacing": s} for w, s in rows
            ]
        for i, cost in enumerate(costs[: len(doc["vias"])]):
            doc["vias"][i]["cost"] = cost
        tech = technology_from_stackup(doc)
        canonical = technology_to_dict(tech)
        again = technology_from_dict(canonical)
        assert again == tech
        assert technology_to_dict(again) == canonical
        # And through the sniffing entry point too.
        assert technology_from_any(canonical) == tech


# ----------------------------------------------------------------------
# Width classes on the occupancy grid
# ----------------------------------------------------------------------
def _grid(n=24):
    tracks = TrackSet.uniform(0, 8 * (n + 1), 8)
    return RoutingGrid(tracks, tracks)


class TestFootprints:
    def test_footprint_validation(self):
        grid = _grid()
        with pytest.raises(ValueError):
            grid.set_net_footprint(1, 0)
        with pytest.raises(ValueError):
            grid.set_net_footprint(1, 2, guard=-1)
        with pytest.raises(ValueError):
            grid.set_net_footprint(0, 2)

    def test_default_footprint_is_single_track(self):
        grid = _grid()
        grid.set_net_footprint(7, 1, guard=0)  # (1, 0) is not stored
        assert grid.footprint_of(7) == (1, 0)
        assert grid.max_footprint_reach() == 0

    def test_wide_claim_covers_span_and_guard(self):
        grid = _grid()
        grid.set_net_footprint(5, 2, guard=1)
        grid.occupy_h(10, 3, 8, 5)
        # Metal on rows 10-11, guards hold rows 9 and 12.
        for row in (9, 10, 11, 12):
            assert grid.h_slot(5, row) == 5
        assert grid.h_slot(5, 8) == FREE and grid.h_slot(5, 13) == FREE

    def test_foreign_net_blocked_by_guard(self):
        grid = _grid()
        grid.set_net_footprint(5, 2, guard=1)
        grid.occupy_h(10, 3, 8, 5)
        assert grid.free_span_h(9, 5, 6) is None
        with pytest.raises(ValueError, match="not free"):
            grid.occupy_h(12, 3, 8, 6)

    def test_rip_net_frees_whole_footprint(self):
        grid = _grid()
        grid.set_net_footprint(5, 2, guard=1)
        grid.occupy_h(10, 3, 8, 5)
        grid.rip_net(5)
        for row in (9, 10, 11, 12):
            assert grid.h_slot(5, row) == FREE

    def test_transaction_rollback_restores_footprint_cells(self):
        grid = _grid()
        grid.set_net_footprint(5, 3, guard=0)
        try:
            with grid.transaction():
                grid.occupy_v(4, 2, 9, 5)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        for col in (4, 5, 6):
            for h in (2, 9):
                assert grid.v_slot(col, h) == FREE

    def test_net_class_track_spans(self):
        assert NetClass.SIGNAL.track_span == 1
        assert NetClass.CLOCK.track_span == 2
        assert NetClass.POWER.track_span == 3

    def test_net_footprint_from_golden_tables(self):
        tech = golden_technology()
        assert tech.net_footprint(NetClass.SIGNAL, 0) == (1, 0)
        assert tech.net_footprint(NetClass.CLOCK, 0) == (2, 1)
        assert tech.net_footprint(NetClass.POWER, 0) == (3, 2)
        # Plane 1 (metal5/metal6) is table-free: no guards.
        assert tech.net_footprint(NetClass.POWER, 1) == (3, 0)

# ----------------------------------------------------------------------
# Via-minimization objective on the router
# ----------------------------------------------------------------------
def _wide_toy():
    """Two facing cells, one signal/clock/power net each, pins spaced
    far enough apart that POWER footprints never overlap a neighbour."""
    from repro.netlist import Design, Edge

    d = Design("widetoy")
    c0 = d.add_cell("c0", 240, 64)
    c0.place(16, 16)
    c1 = d.add_cell("c1", 240, 64)
    c1.place(16, 432)
    classes = [
        ("sig", NetClass.SIGNAL),
        ("clk", NetClass.CLOCK),
        ("pwr", NetClass.POWER),
    ]
    for j, (name, net_class) in enumerate(classes):
        net = d.add_net(name, net_class=net_class)
        net.add_pin(d.add_pin("c0", f"p{j}", Edge.TOP, 8 + j * 96))
        net.add_pin(d.add_pin("c1", f"p{j}", Edge.BOTTOM, 8 + j * 96))
    return d


class TestViasObjective:
    BOUNDS = Rect(0, 0, 512, 512)

    def test_invalid_objective_rejected(self):
        design = _wide_toy()
        with pytest.raises(ValueError, match="objective"):
            LevelBRouter(
                self.BOUNDS,
                list(design.nets.values()),
                objective="fastest",
            )

    def test_wire_objective_has_no_surcharge(self):
        design = _wide_toy()
        router = LevelBRouter(self.BOUNDS, list(design.nets.values()))
        for net in design.nets.values():
            assert router.corner_surcharge(router.net_id(net)) == 0.0

    def test_vias_objective_prices_corners(self):
        from repro.core.router import VIA_OBJECTIVE_SCALE

        design = _wide_toy()
        router = LevelBRouter(
            self.BOUNDS,
            list(design.nets.values()),
            technology=golden_technology(),
            planes=2,
            objective="vias",
        )
        tech = router.technology
        for net in design.nets.values():
            nid = router.net_id(net)
            plane = router.tig.plane_of(nid)
            expected = VIA_OBJECTIVE_SCALE * tech.corner_via_cost(plane)
            assert router.corner_surcharge(nid) == expected

    def test_wide_classes_get_footprints(self):
        design = _wide_toy()
        router = LevelBRouter(
            self.BOUNDS,
            list(design.nets.values()),
            technology=golden_technology(),
            planes=2,
        )
        tech = router.technology
        for net in design.nets.values():
            nid = router.net_id(net)
            plane = router.tig.plane_of(nid)
            assert router.footprint_of(nid) == tech.net_footprint(
                net.net_class, plane
            )

    def test_wide_toy_routes_clean_under_strict_check(self):
        from repro.check import check_levelb

        design = _wide_toy()
        result = LevelBRouter(
            self.BOUNDS,
            list(design.nets.values()),
            technology=golden_technology(),
            planes=2,
            checked=True,
        ).route()
        report = check_levelb(result)
        assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Width-dependent DRC rules
# ----------------------------------------------------------------------
class TestWidthDRC:
    def _grid_and_tech(self):
        tracks = TrackSet.uniform(0, 300, 12)
        from repro.grid import RoutingGrid as RG

        return RG(tracks, tracks), golden_technology()

    def test_spacing_violation_flagged(self):
        from repro.check import RULE_SPACING, check_spacing
        from repro.check.extract import ExtractedDesign, Wire

        grid, tech = self._grid_and_tech()
        # metal3 is vertical; POWER spans 3 tracks with guard 2, so a
        # foreign wire one track past the metal edge is too close.
        design = ExtractedDesign(
            wires=[
                Wire("pwr", 3, 60, 0, 120),   # base track idx 5, span 3
                Wire("sig", 3, 96, 40, 160),  # idx 8: gap 1 <= guard 2
            ]
        )
        violations = check_spacing(design, grid, tech, spans={"pwr": 3})
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == RULE_SPACING
        assert "pwr" in v.message and "sig" in v.message

    def test_spacing_clear_when_guard_respected(self):
        from repro.check import check_spacing
        from repro.check.extract import ExtractedDesign, Wire

        grid, tech = self._grid_and_tech()
        design = ExtractedDesign(
            wires=[
                Wire("pwr", 3, 60, 0, 120),
                Wire("sig", 3, 132, 40, 160),  # idx 11: gap 3 > guard 2
            ]
        )
        assert check_spacing(design, grid, tech, spans={"pwr": 3}) == []

    def test_spacing_ignores_disjoint_extents(self):
        from repro.check import check_spacing
        from repro.check.extract import ExtractedDesign, Wire

        grid, tech = self._grid_and_tech()
        design = ExtractedDesign(
            wires=[
                Wire("pwr", 3, 60, 0, 50),
                Wire("sig", 3, 96, 80, 160),  # same tracks, disjoint runs
            ]
        )
        assert check_spacing(design, grid, tech, spans={"pwr": 3}) == []

    def test_width_violation_flagged(self):
        from repro.check import RULE_WIDTH, check_widths
        from repro.check.extract import ExtractedDesign, Wire

        doc = golden_stackup()
        for metal in doc["metals"]:
            if metal["name"] == "metal3":
                metal["min_width"] = 0.6  # 12 lambda > drawn width 6
        tech = technology_from_any(doc)
        design = ExtractedDesign(wires=[Wire("sig", 3, 60, 0, 120)])
        violations = check_widths(design, tech, spans={"sig": 1})
        assert [v.rule for v in violations] == [RULE_WIDTH]
        # A 2-track wire is 6 + 12 = 18 lambda wide and passes.
        assert check_widths(design, tech, spans={"sig": 2}) == []


# ----------------------------------------------------------------------
# Serve protocol: objective + technology canonicalization
# ----------------------------------------------------------------------
class TestServeSpec:
    def test_objective_validated(self):
        from repro.serve.protocol import JobSpec, SpecError

        with pytest.raises(SpecError, match="objective"):
            JobSpec.from_dict({"design": "ex3", "objective": "fastest"})

    def test_objective_changes_digest(self):
        from repro.serve.protocol import JobSpec

        wire = JobSpec.from_dict({"design": "ex3"})
        vias = JobSpec.from_dict({"design": "ex3", "objective": "vias"})
        assert wire.objective == "wire" and vias.objective == "vias"
        assert wire.digest() != vias.digest()

    def test_equivalent_technology_docs_share_digest(self):
        from repro.serve.protocol import JobSpec

        stackup = JobSpec.from_dict(
            {"design": "ex3", "technology": golden_stackup()}
        )
        canonical = JobSpec.from_dict(
            {
                "design": "ex3",
                "technology": technology_to_dict(golden_technology()),
            }
        )
        assert stackup.digest() == canonical.digest()

    def test_invalid_technology_doc_rejected(self):
        from repro.serve.protocol import JobSpec, SpecError

        with pytest.raises(SpecError, match="technology"):
            JobSpec.from_dict({"design": "ex3", "technology": "m3"})


# ----------------------------------------------------------------------
# CLI smoke: route --tech <stackup> / --objective vias
# ----------------------------------------------------------------------
class TestCliStackup:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clistk", seed=23, num_cells=6, num_nets=12,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_route_with_stackup_tech(self, design_file, capsys):
        from repro.cli import main

        rc = main([
            "route", "--design", str(design_file),
            "--tech", str(GOLDEN), "--planes", "2",
        ])
        assert rc == 0
        assert "plane 0 (metal3/metal4):" in capsys.readouterr().out

    def test_route_vias_objective(self, design_file, tmp_path, capsys):
        from repro.cli import main

        summary = tmp_path / "summary.json"
        rc = main([
            "route", "--design", str(design_file),
            "--tech", str(GOLDEN), "--planes", "2",
            "--objective", "vias", "--json", str(summary),
        ])
        assert rc == 0
        json.loads(summary.read_text())
