"""End-to-end routing flows and their shared metrics.

Three flows, all consuming the same :class:`~repro.netlist.Design` and
sharing the placement/global-routing/channel-routing substrate so
comparisons isolate the routing methodology:

* :func:`two_layer_flow` - the conventional baseline: every net
  channel-routed on metal1/metal2 (Table 2's comparison point).
* :func:`overcell_flow` - the paper's method: set A in channels,
  set B over the cells on metal3/metal4.
* :func:`multilayer_channel_flow` - Table 3's comparison: a four-layer
  channel router modelled optimistically as a 50 % channel-area
  reduction (the paper's own assumption), plus a design-rule-aware
  variant as an ablation.

:data:`FLOWS`, :func:`resolve_design` and :func:`result_summary` are
the shared front door of the CLI, the batch runner and the server.

:func:`routability_probe` complements the over-cell flow: it runs the
same partition + channel pipeline, then routes set B inside one grid
transaction and rolls it back - a what-if routability assessment that
commits nothing.
"""

from repro.flow.metrics import FlowResult, percent_reduction
from repro.flow.params import FlowParams
from repro.flow.pipeline import (
    FLOWS,
    RoutabilityProbe,
    multilayer_channel_flow,
    overcell_flow,
    resolve_design,
    result_summary,
    routability_probe,
    two_layer_flow,
)

__all__ = [
    "FLOWS",
    "resolve_design",
    "result_summary",
    "FlowParams",
    "FlowResult",
    "percent_reduction",
    "two_layer_flow",
    "overcell_flow",
    "multilayer_channel_flow",
    "RoutabilityProbe",
    "routability_probe",
]
