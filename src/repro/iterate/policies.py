"""Net-ordering policies for iterative routing.

"Machine Learning Optimal Ordering in Global Routing Problems in
Semiconductors" (PAPERS.md, arXiv 2412.21035) shows that the order
nets route in moves completion and wirelength on its own.  The paper's
router fixes one order up front (``repro.core.ordering``); the
iterative driver (:mod:`repro.iterate.loop`) instead asks an
:class:`OrderingPolicy` for a fresh order before every pass, feeding
it the previous iteration's per-net outcome (:class:`NetFeedback`) so
the order can react to observed congestion.

Three policies ship, resolved by name through :func:`get_policy`:

``longest-first``
    The paper's criterion every pass, with failed nets promoted to the
    front.  Its *initial* order is exactly
    ``order_nets(nets, LONGEST_FIRST)``, so iteration 0 of an
    iterative run is bit-identical to one-pass routing.

``congestion``
    Reorders by the previous iteration's overflow contribution: nets
    whose read windows touch overflowed coarse regions
    (:class:`repro.globalroute.RegionModel`) route earlier, while the
    grid still has slack where they need it.

``feature``
    A linear scoring policy over static net features (length, degree)
    and dynamic feedback (failure, overflow, demand).  The default
    :class:`FeatureWeights` come from
    :func:`repro.iterate.tuning.tune_feature_policy`, which scores
    candidate weight vectors on the random corpus using ``instrument``
    counters.

Every policy must return a *total, deterministic* order — ties always
break on the net name, matching the ``core/ordering.py`` contract the
property tests pin.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.ordering import NetOrdering, order_nets
from repro.netlist import Net

__all__ = [
    "CongestionAwarePolicy",
    "FeatureOrderingPolicy",
    "FeatureWeights",
    "LongestFirstPolicy",
    "NetFeedback",
    "OrderingPolicy",
    "available_policies",
    "get_policy",
]


@dataclass(frozen=True)
class NetFeedback:
    """One net's outcome in the previous iteration.

    ``overflow`` counts the overflowed coarse regions the net's read
    window touches; ``demand`` is the peak demand/capacity utilization
    over all the regions it touches — both from the
    :class:`~repro.globalroute.RegionModel` the loop rebuilds each
    pass.
    """

    failed: bool = False
    wire_length: int = 0
    corners: int = 0
    overflow: int = 0
    demand: float = 0.0


#: What a policy sees for nets the previous iteration has no record of.
NO_FEEDBACK = NetFeedback()


class OrderingPolicy(ABC):
    """Decides the serial routing order of every iteration."""

    #: The name :func:`get_policy` resolves; set by every concrete policy.
    name: str = ""

    def initial_order(self, nets: Sequence[Net]) -> list[Net]:
        """Iteration 0's order, before any feedback exists.

        Defaults to the paper's longest-first criterion so an
        iterative run's first pass matches one-pass routing.
        """
        return order_nets(nets, NetOrdering.LONGEST_FIRST)

    @abstractmethod
    def reorder(
        self, nets: Sequence[Net], feedback: Mapping[str, NetFeedback]
    ) -> list[Net]:
        """The next iteration's order, given the last one's outcome.

        ``feedback`` is keyed by net name.  Implementations must
        return a permutation of ``nets`` and break all ties by net
        name.
        """


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
class LongestFirstPolicy(OrderingPolicy):
    """The paper's longest-distance-first criterion, every pass.

    On re-orders, previously failed nets are promoted to the front
    (longest-first among themselves): they are the nets that need free
    tracks the most, and right after the rip-up the grid is emptiest.
    """

    name = "longest-first"

    def reorder(
        self, nets: Sequence[Net], feedback: Mapping[str, NetFeedback]
    ) -> list[Net]:
        return sorted(
            nets,
            key=lambda n: (
                not feedback.get(n.name, NO_FEEDBACK).failed,
                -n.half_perimeter,
                n.name,
            ),
        )


class CongestionAwarePolicy(OrderingPolicy):
    """Reorder by the previous iteration's overflow contribution.

    Failed nets first, then nets touching more overflowed regions,
    then higher peak region demand, then longest-first — so the nets
    fighting over contested areas claim tracks before the easy ones
    fill the slack around them.
    """

    name = "congestion"

    def reorder(
        self, nets: Sequence[Net], feedback: Mapping[str, NetFeedback]
    ) -> list[Net]:
        def key(n: Net) -> tuple:
            fb = feedback.get(n.name, NO_FEEDBACK)
            return (not fb.failed, -fb.overflow, -fb.demand, -n.half_perimeter, n.name)

        return sorted(nets, key=key)


@dataclass(frozen=True)
class FeatureWeights:
    """Linear scoring weights of the feature-driven policy.

    Static features (``length``, ``degree``) are normalised to the
    netlist's maxima so every term lives on a comparable scale; the
    defaults are the winning vector of
    :func:`repro.iterate.tuning.tune_feature_policy` on the random
    corpus.
    """

    fail: float = 2.0
    overflow: float = 4.0
    demand: float = 2.0
    length: float = 0.5
    degree: float = 0.5


class FeatureOrderingPolicy(OrderingPolicy):
    """Score nets by a weighted feature sum; highest score routes first.

    The features mix what is known statically (half-perimeter length,
    pin degree) with the previous iteration's feedback (failure flag,
    overflow contact, peak region demand).  With no feedback — the
    initial order — only the static terms contribute, which still
    yields a deterministic total order.
    """

    name = "feature"

    def __init__(self, weights: FeatureWeights | None = None) -> None:
        self.weights = weights or FeatureWeights()

    def _scores(
        self, nets: Sequence[Net], feedback: Mapping[str, NetFeedback]
    ) -> dict[str, float]:
        w = self.weights
        max_hp = max((n.half_perimeter for n in nets), default=0) or 1
        max_deg = max((n.degree for n in nets), default=0) or 1
        max_ovf = max(
            (feedback.get(n.name, NO_FEEDBACK).overflow for n in nets),
            default=0,
        ) or 1
        scores: dict[str, float] = {}
        for n in nets:
            fb = feedback.get(n.name, NO_FEEDBACK)
            scores[n.name] = (
                w.fail * float(fb.failed)
                + w.overflow * (fb.overflow / max_ovf)
                + w.demand * fb.demand
                + w.length * (n.half_perimeter / max_hp)
                + w.degree * (n.degree / max_deg)
            )
        return scores

    def initial_order(self, nets: Sequence[Net]) -> list[Net]:
        return self.reorder(nets, {})

    def reorder(
        self, nets: Sequence[Net], feedback: Mapping[str, NetFeedback]
    ) -> list[Net]:
        scores = self._scores(nets, feedback)
        return sorted(nets, key=lambda n: (-scores[n.name], n.name))


#: The built-in policies by name, the keys of :func:`available_policies`.
_POLICIES: dict[str, type[OrderingPolicy]] = {
    cls.name: cls
    for cls in (LongestFirstPolicy, CongestionAwarePolicy, FeatureOrderingPolicy)
}


def get_policy(name: str) -> OrderingPolicy:
    """A fresh policy instance by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown ordering policy {name!r} "
            f"(available: {list(available_policies())})"
        ) from None
    return cls()


def available_policies() -> tuple[str, ...]:
    """Policy names, sorted."""
    return tuple(sorted(_POLICIES))
