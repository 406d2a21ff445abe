"""JSON (de)serialisation of designs."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.netlist import Design, Edge
from repro.technology import NetClass

FORMAT_VERSION = 1


def design_to_dict(design: Design) -> dict[str, Any]:
    """A plain-data snapshot of ``design`` (placement included)."""
    cells = []
    for cell in design.cells.values():
        cells.append(
            {
                "name": cell.name,
                "width": cell.width,
                "height": cell.height,
                "origin": list(cell.origin) if cell.origin is not None else None,
                "pins": [
                    {
                        "name": pin.name,
                        "edge": pin.edge.value,
                        "offset": pin.offset,
                    }
                    for pin in cell.pins
                ],
            }
        )
    nets = []
    for net in design.nets.values():
        net_doc: dict[str, Any] = {
            "name": net.name,
            "is_critical": net.is_critical,
            "is_sensitive": net.is_sensitive,
            "weight": net.weight,
            "pins": [pin.full_name for pin in net.pins],
        }
        # Emitted only for wide nets so all-signal documents (and their
        # serve cache digests) stay byte-identical to older revisions.
        if net.net_class is not NetClass.SIGNAL:
            net_doc["net_class"] = net.net_class.value
        nets.append(net_doc)
    return {
        "format": "repro-design",
        "version": FORMAT_VERSION,
        "name": design.name,
        "cells": cells,
        "nets": nets,
    }


def _string(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _flag(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _finite(value: Any, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def design_from_dict(data: dict[str, Any]) -> Design:
    """Rebuild a :class:`Design` written by :func:`design_to_dict`."""
    if data.get("format") != "repro-design":
        raise ValueError("not a repro design document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported design format version {data.get('version')}")
    design = Design(_string(data["name"], "name"))
    pin_index = {}
    for c, cell_data in enumerate(data["cells"]):
        cell = design.add_cell(
            _string(cell_data["name"], f"cells[{c}].name"),
            cell_data["width"],
            cell_data["height"],
        )
        if cell_data.get("origin") is not None:
            x, y = cell_data["origin"]
            cell.place(x, y)
        for p, pin_data in enumerate(cell_data["pins"]):
            pin = design.add_pin(
                cell.name,
                _string(pin_data["name"], f"cells[{c}].pins[{p}].name"),
                Edge(pin_data["edge"]),
                pin_data["offset"],
            )
            pin_index[pin.full_name] = pin
    for n, net_data in enumerate(data["nets"]):
        field = f"nets[{n}]"
        net = design.add_net(
            _string(net_data["name"], f"{field}.name"),
            is_critical=_flag(net_data.get("is_critical", False), f"{field}.is_critical"),
            weight=_finite(net_data.get("weight", 1.0), f"{field}.weight"),
            net_class=NetClass(net_data.get("net_class", "signal")),
        )
        net.is_sensitive = _flag(net_data.get("is_sensitive", False), f"{field}.is_sensitive")
        for full_name in net_data["pins"]:
            try:
                net.add_pin(pin_index[full_name])
            except KeyError:
                raise ValueError(f"net {net.name} references unknown pin {full_name}")
    return design


def save_design(design: Design, path: str | Path) -> None:
    """Write ``design`` as JSON."""
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2))


def load_design(path: str | Path) -> Design:
    """Read a design JSON written by :func:`save_design`."""
    return design_from_dict(json.loads(Path(path).read_text()))
