"""Stackup ingestion: hammer-style JSON documents into :class:`Technology`.

Real technology data arrives as *stackup* documents — per-metal
preferred direction, pitch, min-width and a piecewise width-dependent
spacing table, in physical units (see hammer's ``stackup.py``, the
model this follows).  This module quantizes such a document onto the
router's integer lambda grid and builds a validated
:class:`~repro.technology.rules.Technology` from it, synthesizing via
rules when the document omits them.

Two entry points:

* :func:`technology_from_stackup` — ingest a stackup document (dict).
* :func:`technology_from_any` — sniff the format and dispatch: accepts
  both ``repro-technology`` documents and stackup documents, so every
  consumer (CLI ``--tech``, the serve protocol) takes either.

The presets in :mod:`repro.technology.rules` are themselves expressed
as stackup documents (:func:`preset_stackup`) and ingested through this
path, so the data-driven model is the *only* way a technology comes to
exist — hard-coded and ingested stacks cannot drift apart.

A canonical serialized form for cache keys is
``repro.io.technology_to_dict`` over the ingested technology: two
documents describing the same rules (stackup or repro-technology,
any unit scale that quantizes identically) share one canonical dict and
therefore one serve cache digest.
"""

from __future__ import annotations

import math
from typing import Any

from repro.technology.layers import Layer, RoutingDirection, WidthSpacingTuple
from repro.technology.rules import Technology, ViaRule

__all__ = [
    "STACKUP_FORMAT",
    "preset_stackup",
    "technology_from_any",
    "technology_from_stackup",
]

STACKUP_FORMAT = "repro-stackup"


def _finite(value: Any, what: str) -> float:
    """``value`` as a finite float; bools, inf, nan and huge ints fail."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"stackup {what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"stackup {what} must be finite, got {value!r}")
    return out


def _quantize(value: Any, grid_unit: float, what: str) -> int:
    """``value`` in physical units onto the integer lambda grid."""
    physical = _finite(value, what)
    scaled = _finite(physical / grid_unit, f"{what} in grid units")
    lam = round(scaled)
    if abs(lam * grid_unit - physical) > 1e-6 * max(1.0, abs(physical)):
        raise ValueError(
            f"stackup {what} {value} is not a multiple of grid_unit {grid_unit}"
        )
    return lam


def _spacing_table(
    rows: Any, grid_unit: float, name: str
) -> tuple[WidthSpacingTuple, ...]:
    if not isinstance(rows, list):
        raise ValueError(f"{name}: spacing table must be a list")
    table = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{name}: spacing table rows must be objects")
        table.append(
            WidthSpacingTuple(
                width_at_least=_quantize(
                    row.get("width_at_least", 0), grid_unit,
                    f"{name} width_at_least",
                ),
                min_spacing=_quantize(
                    row["min_spacing"], grid_unit, f"{name} min_spacing"
                ),
            )
        )
    return tuple(table)


def technology_from_stackup(data: dict[str, Any]) -> Technology:
    """Build a :class:`Technology` from a stackup document.

    The document carries ``name``, an optional ``grid_unit`` (physical
    units per lambda; 1 means the document is already in lambda), a
    ``metals`` list — each with ``name``, ``index``, ``direction``,
    ``pitch``, optional ``min_width``, optional
    ``power_strap_widths_and_spacings`` (hammer's spelling of the
    piecewise spacing table) and optional electricals — and an optional
    ``vias`` list.  Missing per-metal drawn width defaults to half the
    pitch; missing via rules are synthesized with size equal to the
    wider of the two layers they join and cost 1.
    """
    if not isinstance(data, dict):
        raise ValueError("stackup document must be a JSON object")
    if "metals" not in data:
        raise ValueError("stackup document requires a 'metals' list")
    grid_unit = _finite(data.get("grid_unit", 1.0), "grid_unit")
    if grid_unit <= 0:
        raise ValueError(f"grid_unit must be a positive number, got {grid_unit!r}")
    metals = data["metals"]
    if not isinstance(metals, list) or not metals:
        raise ValueError("'metals' must be a non-empty list")
    for pos, metal in enumerate(metals):
        if not isinstance(metal, dict):
            raise ValueError(
                f"metals[{pos}] must be a JSON object, got {type(metal).__name__}"
            )
    layers = []
    for pos, metal in enumerate(sorted(metals, key=lambda m: m.get("index", 0))):
        name = metal.get("name", f"metal{pos + 1}")
        index = metal.get("index", pos + 1)
        direction = metal.get("direction")
        if direction not in ("horizontal", "vertical"):
            raise ValueError(
                f"{name}: direction must be 'horizontal' or 'vertical', "
                f"got {direction!r}"
            )
        pitch = _quantize(metal["pitch"], grid_unit, f"{name} pitch")
        width = (
            _quantize(metal["width"], grid_unit, f"{name} width")
            if "width" in metal
            else pitch // 2
        )
        min_width = (
            _quantize(metal["min_width"], grid_unit, f"{name} min_width")
            if metal.get("min_width") is not None
            else None
        )
        table = _spacing_table(
            metal.get("power_strap_widths_and_spacings", []), grid_unit, name
        )
        layers.append(
            Layer(
                index=index,
                name=name,
                direction=RoutingDirection(direction),
                pitch=pitch,
                width=width,
                sheet_resistance=metal.get("sheet_resistance", 0.07),
                cap_per_lambda=metal.get("cap_per_lambda", 0.20),
                min_width=min_width,
                spacing_table=table,
            )
        )
    vias = _ingest_vias(data.get("vias"), layers, grid_unit)
    return Technology(
        name=str(data.get("name", "stackup")),
        layers=tuple(layers),
        vias=tuple(vias),
    )


def _ingest_vias(
    via_docs: Any, layers: list[Layer], grid_unit: float
) -> list[ViaRule]:
    declared: dict[int, ViaRule] = {}
    if via_docs is not None:
        if not isinstance(via_docs, list):
            raise ValueError("'vias' must be a list")
        for pos, vd in enumerate(via_docs):
            if not isinstance(vd, dict):
                raise ValueError(
                    f"vias[{pos}] must be a JSON object, got {type(vd).__name__}"
                )
            rule = ViaRule(
                lower=vd["lower"],
                upper=vd["upper"],
                size=_quantize(vd["size"], grid_unit, "via size"),
                cost=_finite(vd.get("cost", 1.0), "via cost"),
            )
            declared[rule.lower] = rule
    vias = []
    for lower in range(1, len(layers)):
        if lower in declared:
            vias.append(declared[lower])
        else:
            # Synthesized rule: the cut must land on both layers, so
            # size follows the wider of the pair.
            size = max(layers[lower - 1].width, layers[lower].width)
            vias.append(ViaRule(lower=lower, upper=lower + 1, size=size))
    return vias


def technology_from_any(data: dict[str, Any]) -> Technology:
    """Dispatch on document shape: repro-technology or stackup.

    ``repro-technology`` documents go through
    :func:`repro.io.technology_from_dict`; anything carrying a
    ``metals`` list is treated as a stackup document.
    """
    if not isinstance(data, dict):
        raise ValueError("technology document must be a JSON object")
    if data.get("format") == "repro-technology":
        from repro.io import technology_from_dict

        return technology_from_dict(data)
    if data.get("format") == STACKUP_FORMAT or "metals" in data:
        return technology_from_stackup(data)
    raise ValueError(
        "unrecognized technology document: expected format "
        f"'repro-technology' or '{STACKUP_FORMAT}' (a 'metals' list)"
    )


# ----------------------------------------------------------------------
# The presets, as stackup data
# ----------------------------------------------------------------------
def preset_stackup(planes: int) -> dict[str, Any]:
    """The generic preset stack as a stackup document.

    ``planes`` over-cell pairs above the metal1/metal2 channel pair.
    Plane 0 is the paper's metal3/metal4; each further pair follows the
    process trend the paper leans on — coarser pitch, wider lines,
    thicker (lower sheet resistance) metal, larger vias.  Ingesting
    this document reproduces the historical hard-coded presets
    byte-for-byte, which is what pins the seed route digests.
    """
    if planes < 1:
        raise ValueError("need at least one over-cell plane")
    metals: list[dict[str, Any]] = [
        {"name": "metal1", "index": 1, "direction": "vertical",
         "pitch": 8, "width": 4,
         "sheet_resistance": 0.09, "cap_per_lambda": 0.23},
        {"name": "metal2", "index": 2, "direction": "horizontal",
         "pitch": 8, "width": 4,
         "sheet_resistance": 0.07, "cap_per_lambda": 0.21},
        {"name": "metal3", "index": 3, "direction": "vertical",
         "pitch": 12, "width": 6,
         "sheet_resistance": 0.04, "cap_per_lambda": 0.19},
        {"name": "metal4", "index": 4, "direction": "horizontal",
         "pitch": 12, "width": 6,
         "sheet_resistance": 0.03, "cap_per_lambda": 0.18},
    ]
    vias: list[dict[str, Any]] = [
        {"lower": 1, "upper": 2, "size": 4},
        {"lower": 2, "upper": 3, "size": 6},
        {"lower": 3, "upper": 4, "size": 8},
    ]
    for p in range(1, planes):
        v_idx, h_idx = 3 + 2 * p, 4 + 2 * p
        pitch = 12 + 4 * p
        width = pitch // 2
        scale = 0.75**p
        metals.append(
            {"name": f"metal{v_idx}", "index": v_idx, "direction": "vertical",
             "pitch": pitch, "width": width,
             "sheet_resistance": 0.04 * scale,
             "cap_per_lambda": max(0.05, 0.19 - 0.01 * p)}
        )
        metals.append(
            {"name": f"metal{h_idx}", "index": h_idx,
             "direction": "horizontal", "pitch": pitch, "width": width,
             "sheet_resistance": 0.03 * scale,
             "cap_per_lambda": max(0.05, 0.18 - 0.01 * p)}
        )
        vias.append({"lower": v_idx - 1, "upper": v_idx, "size": 8 + 2 * (v_idx - 4)})
        vias.append({"lower": v_idx, "upper": h_idx, "size": 8 + 2 * (v_idx - 3)})
    return {
        "format": STACKUP_FORMAT,
        "name": f"generic-{2 + 2 * planes}L",
        "grid_unit": 1,
        "metals": metals,
        "vias": vias,
    }
