"""repro.check - independent static verification of routed output.

Takes what the routers *produced* (committed paths, claimed corners,
channel routes) and what the netlist *demanded*, re-extracts the
realised wiring without consulting the routers' own bookkeeping, and
checks it three ways:

* **DRC** - geometric legality: per-layer shorts, track legality,
  corner/via placement, obstacle violations and cross-plane via-stack
  legality (:mod:`repro.check.drc`);
* **LVS-lite** - connectivity: the extracted net graph vs the netlist,
  reporting opens, merged nets and dangling metal
  (:mod:`repro.check.lvs`);
* **invariant sanitizer** - paper-level guarantees (one corner per
  track, corner claims match geometry, layer assignment) and grid
  bookkeeping audits (ledger replay, journal balance)
  (:mod:`repro.check.sanitize`).

Violations are structured :class:`Violation` records under the rule ids
of :mod:`repro.check.rules` (documented in ``docs/VERIFICATION.md``).
Entry points: :func:`check_levelb`, :func:`check_flow`,
:func:`check_grid` and the router's per-commit :func:`sanitize_commit`
(checked mode, ``LevelBRouter(..., checked=True)``); the ``repro check`` CLI
wraps them.
"""

from repro.check.api import (
    GRID_RULES,
    LEVELB_RULES,
    check_flow,
    check_grid,
    check_levelb,
    sanitize_commit,
)
from repro.check.drc import (
    check_corners,
    check_obstacles,
    check_shorts,
    check_spacing,
    check_stacks,
    check_tracks,
    check_widths,
)
from repro.check.extract import (
    HORIZONTAL_LAYER,
    VERTICAL_LAYER,
    ExtractedDesign,
    Via,
    Wire,
    extract_levelb,
    layer_is_horizontal,
    plane_layers,
    wires_of_path,
)
from repro.check.lvs import check_connectivity
from repro.check.rules import (
    ALL_RULES,
    RULE_CHANNEL,
    RULE_CORNER,
    RULE_CORNER_CLAIM,
    RULE_CORNER_PER_TRACK,
    RULE_DANGLING,
    RULE_JOURNAL,
    RULE_LAYER,
    RULE_LEDGER,
    RULE_MERGED,
    RULE_OBSTACLE,
    RULE_OPEN,
    RULE_SHORT,
    RULE_SPACING,
    RULE_STACK,
    RULE_TRACK,
    RULE_WIDTH,
)
from repro.check.sanitize import (
    audit_grid,
    check_connection_invariants,
    check_invariants,
    check_layer_assignment,
)
from repro.check.violations import (
    CheckFailure,
    CheckReport,
    Severity,
    Violation,
)

__all__ = [
    "ALL_RULES",
    "GRID_RULES",
    "LEVELB_RULES",
    "RULE_CHANNEL",
    "RULE_CORNER",
    "RULE_CORNER_CLAIM",
    "RULE_CORNER_PER_TRACK",
    "RULE_DANGLING",
    "RULE_JOURNAL",
    "RULE_LAYER",
    "RULE_LEDGER",
    "RULE_MERGED",
    "RULE_OBSTACLE",
    "RULE_OPEN",
    "RULE_SHORT",
    "RULE_SPACING",
    "RULE_STACK",
    "RULE_TRACK",
    "RULE_WIDTH",
    "HORIZONTAL_LAYER",
    "VERTICAL_LAYER",
    "CheckFailure",
    "CheckReport",
    "ExtractedDesign",
    "Severity",
    "Via",
    "Violation",
    "Wire",
    "audit_grid",
    "check_connection_invariants",
    "check_connectivity",
    "check_corners",
    "check_flow",
    "check_grid",
    "check_invariants",
    "check_layer_assignment",
    "check_levelb",
    "check_obstacles",
    "check_shorts",
    "check_spacing",
    "check_stacks",
    "check_tracks",
    "check_widths",
    "extract_levelb",
    "layer_is_horizontal",
    "plane_layers",
    "sanitize_commit",
    "wires_of_path",
]
