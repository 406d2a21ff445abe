"""Reproduction of *A Multi-Layer Router Utilizing Over-Cell Areas*.

Katsadas & Chen, 27th ACM/IEEE Design Automation Conference (DAC), 1990.

The package implements the paper's two-level, four-layer routing
methodology for macro-cell layouts together with every substrate it
depends on:

``repro.geometry``
    Integer Manhattan geometry (points, rectangles, interval algebra).
``repro.technology``
    Metal layer stacks and design rules.
``repro.netlist``
    Cells, pins, nets and the :class:`~repro.netlist.Design` container.
``repro.placement``
    Row/shelf macro-cell placement producing channels.
``repro.channels``
    Two-layer channel routing (left-edge with doglegs, greedy).
``repro.globalroute``
    Channel assignment for the channel-routed (level A) nets.
``repro.grid``
    Non-uniform routing tracks and the ``O(h*v)`` occupancy model.
``repro.core``
    The paper's contribution: the level B over-cell router built on the
    Track Intersection Graph, modified BFS, Path Selection Trees and the
    Steiner-Prim multi-terminal heuristic.
``repro.maze``
    Lee-style maze router baseline.
``repro.partition``
    Net partitioning strategies (set A vs. set B).
``repro.flow``
    End-to-end flows: two-layer baseline, proposed over-cell flow, and
    the optimistic multi-layer channel model of Table 3.
``repro.bench_suite``
    Deterministic synthetic versions of the paper's three examples.
``repro.viz`` / ``repro.reporting``
    ASCII/SVG rendering and table formatting.
"""

from repro.geometry import Interval, Point, Rect
from repro.technology import Layer, Technology
from repro.netlist import Cell, Design, Net, Pin

__version__ = "1.0.0"

__all__ = [
    "Interval",
    "Point",
    "Rect",
    "Layer",
    "Technology",
    "Cell",
    "Design",
    "Net",
    "Pin",
    "__version__",
]
