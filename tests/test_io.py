"""Tests for design/result serialisation."""

import json

import pytest

from repro.bench_suite import SUITES, random_design
from repro.flow import overcell_flow, two_layer_flow
from repro.io import (
    design_from_dict,
    design_to_dict,
    flow_result_to_dict,
    levelb_result_to_dict,
    load_design,
    save_design,
)

from conftest import make_toy_design


class TestDesignRoundTrip:
    def test_unplaced_round_trip(self):
        design = random_design("io1", seed=3, num_cells=6, num_nets=12)
        clone = design_from_dict(design_to_dict(design))
        assert clone.name == design.name
        assert set(clone.cells) == set(design.cells)
        assert set(clone.nets) == set(design.nets)
        for name, net in design.nets.items():
            other = clone.nets[name]
            assert other.degree == net.degree
            assert other.is_critical == net.is_critical
            assert [p.full_name for p in other.pins] == [
                p.full_name for p in net.pins
            ]

    def test_placement_preserved(self):
        design = make_toy_design()
        clone = design_from_dict(design_to_dict(design))
        assert clone.is_placed
        for name, cell in design.cells.items():
            assert clone.cells[name].origin == cell.origin

    def test_net_attributes_preserved(self):
        design = make_toy_design()
        net = next(iter(design.nets.values()))
        net.is_critical = True
        net.is_sensitive = True
        net.weight = 2.5
        clone = design_from_dict(design_to_dict(design))
        other = clone.nets[net.name]
        assert other.is_critical and other.is_sensitive
        assert other.weight == 2.5

    def test_file_round_trip(self, tmp_path):
        design = make_toy_design()
        path = tmp_path / "design.json"
        save_design(design, path)
        clone = load_design(path)
        assert clone.stats() == design.stats()
        # The file is genuine JSON.
        json.loads(path.read_text())

    def test_clone_routes_identically(self):
        design = random_design("io2", seed=9, num_cells=6, num_nets=14,
                               num_critical=2)
        a = overcell_flow(design)
        clone = design_from_dict(design_to_dict(random_design(
            "io2", seed=9, num_cells=6, num_nets=14, num_critical=2)))
        b = overcell_flow(clone)
        assert a.layout_area == b.layout_area
        assert a.wire_length == b.wire_length

    @pytest.mark.parametrize(
        "field, value",
        [("height", 0.5), ("width", 0.5), ("height", True), ("width", "8")],
    )
    def test_non_integer_cell_dimension_rejected(self, field, value):
        """A fractional height used to load and then crash routing with
        ``KeyError: 'no track at coordinate ...'``."""
        doc = design_to_dict(SUITES["ami33"]())
        cell = doc["cells"][0]
        cell[field] = cell[field] + value if isinstance(value, float) else value
        with pytest.raises(ValueError, match=f"cell {cell['name']} {field}"):
            design_from_dict(doc)

    @pytest.mark.parametrize("value", [2.5, False])
    def test_non_integer_pin_offset_rejected(self, value):
        doc = design_to_dict(SUITES["ami33"]())
        cell = next(c for c in doc["cells"] if c["pins"])
        pin = cell["pins"][0]
        pin["offset"] = value
        with pytest.raises(
            ValueError, match=f"pin {pin['name']} offset on cell {cell['name']}"
        ):
            design_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [("name", 0), ("weight", "x"), ("is_critical", {}), ("is_sensitive", "x"),
         ("weight", float("nan")), ("is_critical", 1)],
    )
    def test_bad_net_field_rejected(self, key, value):
        """These used to load: a numeric name then failed deep in routing
        with a ``TypeError``, the rest were accepted silently."""
        doc = design_to_dict(SUITES["ami33"]())
        doc["nets"][3][key] = value
        with pytest.raises(ValueError, match=rf"nets\[3\]\.{key}"):
            design_from_dict(doc)

    @pytest.mark.parametrize(
        "path, field",
        [((), "name"), (("cells", 2), r"cells\[2\]\.name"),
         (("cells", 2, "pins", 0), r"cells\[2\]\.pins\[0\]\.name")],
        ids=["design", "cell", "pin"],
    )
    def test_non_string_names_rejected(self, path, field):
        doc = design_to_dict(SUITES["ami33"]())
        node = doc
        for key in path:
            node = node[key]
        node["name"] = ["not", "a", "name"]
        with pytest.raises(ValueError, match=field):
            design_from_dict(doc)

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError):
            design_from_dict({"format": "something-else"})
        with pytest.raises(ValueError):
            design_from_dict(
                {"format": "repro-design", "version": 99, "name": "x",
                 "cells": [], "nets": []}
            )

    def test_unknown_pin_reference_rejected(self):
        doc = design_to_dict(make_toy_design())
        doc["nets"][0]["pins"].append("ghost.pin")
        with pytest.raises(ValueError, match="unknown pin"):
            design_from_dict(doc)


class TestResultExport:
    def test_levelb_result_export(self):
        design = random_design("io3", seed=4, num_cells=6, num_nets=12)
        result = overcell_flow(design)
        doc = levelb_result_to_dict(result.levelb)
        assert doc["completion_rate"] == 1.0
        assert doc["total_wire_length"] == result.levelb.total_wire_length
        assert len(doc["nets"]) == len(result.levelb.routed)
        for net in doc["nets"]:
            for conn in net["connections"]:
                assert len(conn["waypoints"]) >= 2
        json.dumps(doc)  # must be JSON-serialisable

    def test_flow_result_export(self):
        design = random_design("io4", seed=5, num_cells=6, num_nets=12)
        result = two_layer_flow(design)
        doc = flow_result_to_dict(result)
        assert doc["layout_area"] == result.layout_area
        assert "levelb" not in doc
        json.dumps(doc)

    def test_flow_result_export_with_levelb(self):
        design = random_design("io5", seed=6, num_cells=6, num_nets=12)
        result = overcell_flow(design)
        doc = flow_result_to_dict(result)
        assert doc["levelb"]["completion_rate"] == 1.0
        json.dumps(doc)


class TestTechnologyRoundTrip:
    def test_four_layer_round_trip(self, tmp_path):
        from repro.io import load_technology, save_technology
        from repro.technology import Technology

        tech = Technology.four_layer()
        path = tmp_path / "tech.json"
        save_technology(tech, path)
        clone = load_technology(path)
        assert clone.name == tech.name
        assert clone.num_layers == tech.num_layers
        for a, b in zip(clone.layers, tech.layers):
            assert a == b
        assert clone.vias == tech.vias

    def test_two_layer_round_trip(self):
        from repro.io import technology_from_dict, technology_to_dict
        from repro.technology import Technology

        tech = Technology.two_layer()
        clone = technology_from_dict(technology_to_dict(tech))
        assert clone == tech

    def test_bad_document_rejected(self):
        import pytest as _pytest
        from repro.io import technology_from_dict

        with _pytest.raises(ValueError):
            technology_from_dict({"format": "nope"})

    def test_invalid_stack_rejected_on_load(self):
        import pytest as _pytest
        from repro.io import technology_from_dict, technology_to_dict
        from repro.technology import Technology

        doc = technology_to_dict(Technology.four_layer())
        doc["vias"] = doc["vias"][:-1]  # drop a via rule
        with _pytest.raises(ValueError):
            technology_from_dict(doc)


class TestCanonicalDigest:
    def test_digest_insensitive_to_dict_ordering(self):
        from repro.io import canonical_digest

        a = {"flow": "overcell", "planes": 2, "design": {"x": 1, "y": 2}}
        b = {"design": {"y": 2, "x": 1}, "planes": 2, "flow": "overcell"}
        assert canonical_digest(a) == canonical_digest(b)

    def test_digest_sensitive_to_values(self):
        from repro.io import canonical_digest

        base = {"flow": "overcell", "planes": 1}
        assert canonical_digest(base) != canonical_digest(
            {"flow": "overcell", "planes": 2}
        )
        assert canonical_digest(base) != canonical_digest(
            {"flow": "two-layer", "planes": 1}
        )

    def test_digest_pinned(self):
        # The digest is part of the serve wire protocol: a cache entry
        # written by one version must be addressable by the next, so
        # the canonical form is pinned by value here.
        from repro.io import canonical_digest, canonical_json

        doc = {"b": [1, 2, {"z": None, "a": True}], "a": "x"}
        assert canonical_json(doc) == '{"a":"x","b":[1,2,{"a":true,"z":null}]}'
        assert canonical_digest(doc) == (
            "dcfe2a3d2102de1d1e5f2a65d1feaf2f69b60bea4c08409297eb9df544f8bb5b"
        )

    def test_list_order_still_matters(self):
        from repro.io import canonical_digest

        assert canonical_digest([1, 2]) != canonical_digest([2, 1])

    def test_nan_rejected(self):
        from repro.io import canonical_digest

        with pytest.raises(ValueError):
            canonical_digest({"x": float("nan")})

    def test_design_digest_stable_across_export_order(self):
        from repro.io import canonical_digest, design_to_dict

        doc = design_to_dict(make_toy_design())
        shuffled = json.loads(json.dumps(doc))
        shuffled["cells"] = [
            dict(reversed(list(c.items()))) for c in shuffled["cells"]
        ]
        assert canonical_digest(doc) == canonical_digest(shuffled)
