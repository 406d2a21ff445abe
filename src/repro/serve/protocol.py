"""The serve wire protocol: job specifications and their execution.

A :class:`JobSpec` is everything a client sends to request a routing
run: the design (a built-in suite name or an inline ``repro-design``
document), the flow, an optional technology document, and the routing
knobs that change the answer (``planes``) or how it is produced
(``parallel``, ``check``).  Specs validate strictly on ingest so a
malformed request fails at the HTTP boundary, not inside a worker: the
knobs via :class:`~repro.flow.FlowParams`, designs via :func:`~repro.flow.resolve_design`.

Every spec has a *canonical digest* — :func:`repro.io.canonical_digest`
over its canonical document — which keys the server's result cache.
``parallel``, ``backend`` and ``hierarchical`` are deliberately
**excluded** from the digest: the dispatch determinism contract
guarantees speculative routing is bit-identical to serial routing
(docs/PARALLELISM.md), the occupancy backends are storage engines with
identical observable state, and hierarchical wave planning only changes
how non-overlapping work is discovered (docs/SCALING.md) — so requests
differing only in those knobs share one cache entry.  ``check`` *is*
included because it changes the payload (the attached verification
report).

:func:`execute_spec` is the worker-side body: build the design and
``FlowParams``, run the flow, and flatten the outcome into a JSON-safe
payload whose top-level keys (``completion``, ``check_clean``) satisfy
the dispatch runner's success predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.flow import FLOWS, FlowParams, resolve_design, result_summary
from repro.io import canonical_digest

PROTOCOL_VERSION = 1

_SPEC_KEYS = frozenset(
    {
        "design",
        "flow",
        "technology",
        "planes",
        "parallel",
        "check",
        "backend",
        "hierarchical",
        "iterate",
        "max_iterations",
        "ordering_policy",
        "objective",
    }
)

# ----------------------------------------------------------------------
# Digest classification. Every FlowParams field appears in exactly one
# of the three literals below; the ``digest.fields`` lint rule
# cross-checks them against FlowParams and JobSpec.canonical() so a
# new routing knob cannot be added without deciding — in writing —
# whether it keys the result cache.
# ----------------------------------------------------------------------

#: FlowParams fields that reach the canonical digest, mapped to the
#: key ``JobSpec.canonical()`` carries them under.
DIGESTED_FIELDS = {
    "technology": "technology",
    "planes": "planes",
    "checked": "check",
    # The iterative driver changes the routed geometry (rip-up and
    # re-route under history costs — docs/ITERATION.md), so every
    # iterate knob keys the cache.
    "iterate": "iterate",
    "max_iterations": "max_iterations",
    "ordering_policy": "ordering_policy",
    # The routing objective changes plane assignment and corner
    # pricing, hence the routed geometry itself.
    "objective": "objective",
}

#: Bit-identical-result knobs: changing one changes *how* the answer
#: is produced, never the answer (docs/PARALLELISM.md, docs/SCALING.md),
#: so they must not fragment the cache.
DIGEST_EXCLUDED = frozenset(
    {"parallel", "parallel_mode", "backend", "hierarchical"}
)

#: FlowParams fields the wire protocol does not expose: every request
#: gets the server-default value, so within one server's cache they
#: cannot vary between entries.
SERVER_DEFAULTED = frozenset(
    {
        "channel_router",
        "margin",
        "aspect",
        "partition",
        "length_threshold",
        "levelb",
        "obstacles",
        "channel_area_factor",
    }
)


#: Spec keys that :class:`~repro.flow.FlowParams` validates; all but
#: ``check`` (``FlowParams.checked``) share their field's name.
_KNOB_KEYS = tuple(sorted(_SPEC_KEYS - {"design", "flow", "technology"}))


class SpecError(ValueError):
    """A client request that fails validation (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated routing request.

    ``design`` is a built-in suite name (``repro.bench_suite.SUITES``)
    or an inline ``repro-design`` document; ``technology`` an optional
    ``repro-technology`` document.  Inline documents are kept as plain
    dicts — they are rebuilt inside the worker, so a spec stays cheap
    to hold in queues and caches.
    """

    design: str | dict[str, Any]
    flow: str = "overcell"
    technology: dict[str, Any] | None = None
    planes: int = 1
    parallel: int = 0
    check: bool = False
    backend: str = "dense"
    hierarchical: bool = False
    iterate: bool = False
    max_iterations: int = 8
    ordering_policy: str = "longest-first"
    objective: str = "wire"

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Validate and build a spec from a client JSON document."""
        if not isinstance(data, dict):
            raise SpecError("job spec must be a JSON object")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise SpecError(f"unknown job spec keys: {sorted(unknown)}")
        if "design" not in data:
            raise SpecError("job spec requires a 'design'")
        design = data["design"]
        if isinstance(design, str):
            from repro.bench_suite import SUITES

            if design not in SUITES:
                raise SpecError(
                    f"unknown suite {design!r} (available: {sorted(SUITES)})"
                )
        elif isinstance(design, dict):
            if design.get("format") != "repro-design":
                raise SpecError(
                    "inline design must be a 'repro-design' document"
                )
            try:
                resolve_design(design)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        else:
            raise SpecError("'design' must be a suite name or design document")
        flow = data.get("flow", "overcell")
        if not isinstance(flow, str) or flow not in FLOWS:
            raise SpecError(
                f"unknown flow {flow!r} (available: {sorted(FLOWS)})"
            )
        technology = data.get("technology")
        if technology is not None:
            if not isinstance(technology, dict):
                raise SpecError(
                    "'technology' must be a 'repro-technology' or "
                    "stackup document"
                )
            # Canonicalize at the boundary: ingest whatever format the
            # client sent and keep the canonical repro-technology dict,
            # so a stackup document and its repro-technology equivalent
            # (at any unit scale quantizing identically) produce the
            # same spec — and share one cache digest.
            from repro.io import technology_to_dict
            from repro.technology import technology_from_any

            try:
                technology = technology_to_dict(technology_from_any(technology))
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"invalid technology document: {exc}")
        knobs = {key: data[key] for key in _KNOB_KEYS if key in data}
        spec = cls(design=design, flow=flow, technology=technology, **knobs)
        try:
            build_params(spec)  # FlowParams validates every knob
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        return spec

    def to_dict(self) -> dict[str, Any]:
        return {
            "design": self.design,
            "flow": self.flow,
            "technology": self.technology,
            "planes": self.planes,
            "parallel": self.parallel,
            "check": self.check,
            "backend": self.backend,
            "hierarchical": self.hierarchical,
            "iterate": self.iterate,
            "max_iterations": self.max_iterations,
            "ordering_policy": self.ordering_policy,
            "objective": self.objective,
        }

    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The digest-relevant content.

        ``parallel``, ``backend`` and ``hierarchical`` are excluded:
        all three are bit-identical-result knobs (see module
        docstring), so they must not fragment the cache.
        """
        return {
            "kind": "job",
            "version": PROTOCOL_VERSION,
            "design": self.design,
            "flow": self.flow,
            "technology": self.technology,
            "planes": self.planes,
            "check": self.check,
            "iterate": self.iterate,
            "max_iterations": self.max_iterations,
            "ordering_policy": self.ordering_policy,
            "objective": self.objective,
        }

    def digest(self) -> str:
        """Content digest keying the result cache."""
        return canonical_digest(self.canonical())

    @property
    def design_name(self) -> str:
        if isinstance(self.design, str):
            return self.design
        return str(self.design.get("name", "inline"))


def probe_canonical(spec: JobSpec) -> dict[str, Any]:
    """Digest document for the ``/probe`` endpoint.

    Probes share the result cache with full jobs but live in their own
    key namespace — a cached probe never answers a job or vice versa.
    The flow is irrelevant: probes are always over-cell shaped.  The
    iterate knobs are dropped too — a probe is a one-pass what-if by
    definition, so specs differing only in them share a probe entry.
    """
    doc = spec.canonical()
    doc["kind"] = "probe"
    doc.pop("flow", None)
    doc.pop("check", None)
    doc.pop("iterate", None)
    doc.pop("max_iterations", None)
    doc.pop("ordering_policy", None)
    return doc


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def build_params(spec: JobSpec) -> FlowParams:
    """The :class:`~repro.flow.FlowParams` a spec translates to.

    In-server parallel routing uses thread dispatch: the serving
    process is already multi-threaded and fork-from-threads is the
    kind of surprise a long-lived server cannot afford.
    """
    from repro.io import technology_from_dict

    kwargs: dict[str, Any] = {key: getattr(spec, key) for key in _KNOB_KEYS}
    kwargs.update(checked=kwargs.pop("check"), parallel_mode="thread")
    if spec.technology is not None:
        kwargs["technology"] = technology_from_dict(spec.technology)
    return FlowParams(**kwargs)


def execute_spec(spec: JobSpec) -> dict[str, Any]:
    """Route one spec and flatten the outcome into a JSON payload.

    The top level carries the summary metrics the dispatch runner's
    success predicate reads (``completion``, ``check_clean``); the
    full :func:`~repro.io.flow_result_to_dict` export rides under
    ``"result"`` for the ``/jobs/<id>/result`` endpoint.
    """
    from repro import instrument
    from repro.instrument.names import SPAN_SERVE_JOB
    from repro.io import flow_result_to_dict

    design = resolve_design(spec.design)
    params = build_params(spec)
    with instrument.span(SPAN_SERVE_JOB):
        result = FLOWS[spec.flow](design, params)
    return {
        "digest": spec.digest(),
        **result_summary(result),
        "result": flow_result_to_dict(result),
    }


def execute_probe(spec: JobSpec) -> dict[str, Any]:
    """Run the fast what-if routability assessment for a spec."""
    from repro import instrument
    from repro.flow import routability_probe
    from repro.instrument.names import SPAN_SERVE_PROBE

    design = resolve_design(spec.design)
    params = build_params(spec)
    with instrument.span(SPAN_SERVE_PROBE):
        probe = routability_probe(design, params)
    return {
        "digest": canonical_digest(probe_canonical(spec)),
        "design": probe.design,
        "routable": probe.routable,
        "completion": probe.completion,
        "level_a_nets": probe.level_a_nets,
        "level_b_nets": probe.level_b_nets,
        "failed_nets": probe.failed_nets,
        "level_b_wire": probe.level_b_wire,
        "level_b_corners": probe.level_b_corners,
        "ripups": probe.ripups,
        "grid_restored": probe.grid_restored,
    }
