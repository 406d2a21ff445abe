"""Two-layer channel routing (the level A substrate).

The paper routes set A "in channel areas using existing channel routing
packages".  This package is that package: a classic channel model
(top/bottom pin vectors over columns), the vertical constraint graph,
and two detailed routers -

* :class:`GreedyChannelRouter` - a Rivest/Fiduccia-style greedy router
  (the paper's reference [5]).  Always completes, possibly extending
  the channel beyond its last column; the flows' workhorse.
* :class:`LeftEdgeRouter` - the constrained left-edge algorithm with
  dogleg splitting; fails on vertical-constraint cycles and is used
  for comparisons and tests on acyclic instances.

Both produce a :class:`ChannelRoute` with identical geometry/metric
semantics (tracks, wire length, via count), so flows can swap routers.
"""

from repro.channels.problem import ChannelProblem, ChannelRoutingError
from repro.channels.vcg import VerticalConstraintGraph
from repro.channels.route import ChannelRoute, HorizontalSpan, VerticalJog
from repro.channels.greedy import GreedyChannelRouter
from repro.channels.left_edge import LeftEdgeRouter
from repro.channels.multilayer import HVHChannelRouter, HVHResult

__all__ = [
    "HVHChannelRouter",
    "HVHResult",
    "ChannelProblem",
    "ChannelRoutingError",
    "VerticalConstraintGraph",
    "ChannelRoute",
    "HorizontalSpan",
    "VerticalJog",
    "GreedyChannelRouter",
    "LeftEdgeRouter",
]
