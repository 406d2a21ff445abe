"""Route-flow benchmark: one workload per process, every result verified.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 20 --trace 0

``--trace 0`` routes the workload's designs through
``repro.flow.overcell_flow`` with tracing off, as many passes as fit
in ``--seconds`` (at least one), and reports the
end-to-end metrics listed in ``BENCHMARK.json``.  ``setup_s`` runs from
this script's first statement until the inputs are ready (imports,
design generation, stackup ingest); it is the median of this process
and four fresh child processes that stop there.  ``--trace 1`` runs a
traced pass, an untraced pass and a second traced pass, reports the
per-layer metrics, checks that every work count repeats exactly
between the two traced passes, and writes the spans to
``.perfbench/``.

Every pass is verified: ``repro.check.check_flow`` must find nothing,
and every pass must reproduce the first one's quality numbers and
geometry digests.  A digest that differs from the pinned one in
``workloads.py`` is printed as a finding.  The last line of standard
output is one JSON object with ``correct``, ``attempted`` (flows run),
``failed`` (one pass's flows when a check failed, else 0) and
``metrics``.  The exit code is 1 when a check failed; a flow that
raises ends the run with a traceback and no result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no program source at {SRC}")
# The checkout's own source, never an installed copy.
sys.path.insert(0, SRC)

import numpy  # noqa: E402

from repro import instrument  # noqa: E402
from repro.check import check_flow  # noqa: E402
from repro.flow import overcell_flow  # noqa: E402

import workloads  # noqa: E402

#: Processes whose set-up is timed per run (this one and fresh
#: children); ``setup_s`` is their median.
SETUP_SAMPLES = 5
OUT_DIR = ".perfbench"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="print this process's set-up time and exit (samples setup_s)",
    )
    return ap.parse_args(argv)


def run_pass(designs, params, tracer=None):
    """Route every design once; ``(wall seconds, results)``."""
    results = []
    gc.collect()  # garbage left by the previous pass is not this pass's cost
    started = time.perf_counter()
    for design in designs:
        if tracer is None:
            results.append(overcell_flow(design, params))
        else:
            with tracer.span("flow"):
                results.append(overcell_flow(design, params))
    return time.perf_counter() - started, results


def summarize(results, tracer=None):
    """Quality, verification findings and digests of one pass."""
    out = {
        "wirelength": 0,
        "vias": 0,
        "layout_area": 0,
        "routed": 0,
        "attempted_nets": 0,
        "check_violations": 0,
        "digests": {},
    }
    for result in results:
        if tracer is None:
            report = check_flow(result)
        else:
            with tracer.span("check"):
                report = check_flow(result)
        for violation in report.violations:
            print(f"finding: {result.design}: {violation}")
        out["check_violations"] += len(report.violations)
        out["wirelength"] += result.wire_length
        out["vias"] += result.via_count
        out["layout_area"] += result.layout_area
        out["routed"] += sum(1 for r in result.levelb.routed if r.complete)
        out["attempted_nets"] += len(result.levelb.routed)
        out["digests"][result.design] = workloads.geometry_digest(result)
    return out


def verify(workload, summaries):
    """Findings that make the run incorrect; prints digest drift."""
    errors = []
    first = summaries[0]
    if first["check_violations"]:
        errors.append(f"check_flow found {first['check_violations']} violations")
    for i, other in enumerate(summaries[1:], start=2):
        for key, value in first.items():
            if other[key] != value:
                errors.append(f"pass {i} differs from pass 1 in {key}")
    for design, digest in first["digests"].items():
        pinned = workload.digests[design]
        state = "ok" if digest == pinned else f"DRIFT from pinned {pinned}"
        print(f"digest {design}: {digest} {state}")
    return errors


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def emit(correct, attempted, failed, specs, values):
    """Print every metric by name and unit, then the result line."""
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        print(f"{spec['name']:28s} {value!r:>24} {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def end_to_end(args, workload, designs, params, setup_s):
    flow_times, summaries = [], []
    # Another pass only if it should still end within --seconds, so a
    # run spends at most that long on passes (but always makes one).
    while not flow_times or sum(flow_times) + statistics.median(flow_times) <= args.seconds:
        wall, results = run_pass(designs, params)
        flow_times.append(wall)
        summaries.append(summarize(results))
        del results
    errors = verify(workload, summaries)
    q = summaries[0]
    flow_s = statistics.median(flow_times)
    print(f"flow passes: {len(flow_times)}, each {flow_times}")
    print(f"check_violations: {q['check_violations']}")
    values = {
        "setup_s": setup_s,
        "flow_s": flow_s,
        "routed_nets_per_s": q["routed"] / flow_s,
        "completion": q["routed"] / q["attempted_nets"],
        "wirelength": q["wirelength"],
        "vias": q["vias"],
        "layout_area": q["layout_area"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, len(designs) * len(flow_times), errors


def setup_in_child(args) -> float:
    """One set-up time sample, taken in a fresh interpreter."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.patch(workloads, "technology_from_any", "technology.ingest")
    designs, params = workloads.make_inputs(workload, args.seed)
    own_setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(own_setup_s)
        return 0

    print(
        f"machine: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    print(
        f"workload: {workload.name} seed={args.seed} "
        f"designs={','.join(d.name for d in designs)}"
    )
    e2e_specs, layer_specs = load_metric_specs()
    if args.trace:
        return traced(args, workload, designs, params, tracer, layer_specs)
    samples = [own_setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    print(f"setup samples: {samples}")
    values, attempted, errors = end_to_end(
        args, workload, designs, params, statistics.median(samples)
    )
    return finish(errors, attempted, len(designs), e2e_specs, values)


def finish(errors, attempted, designs, specs, values) -> int:
    """Report failed checks, print the metrics and give the exit code."""
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    emit(not errors, attempted, designs if errors else 0, specs, values)
    return 1 if errors else 0


def traced(args, workload, designs, params, tracer, layer_specs) -> int:
    import spans

    ingest = [s for s in tracer.spans if s[0] == "technology.ingest"]
    ingest_s = sum((s[2] - s[1] for s in ingest), 0.0)
    tracer.remove()
    summaries, passes, records = [], [], []

    def traced_pass():
        tracer.spans = []
        with tracer.installed(), instrument.collecting() as col:
            wall, results = run_pass(designs, params, tracer)
            summaries.append(summarize(results, tracer))
        counters = dict(col.counters)
        passes.append(spans.layer_metrics(tracer.spans, counters, wall))
        records.append({"spans": tracer.spans, "counters": counters})

    # The untraced pass sits between the traced ones, so that neither
    # side of ``bench.trace_overhead`` is the process's cold first pass.
    traced_pass()
    untraced_s, results = run_pass(designs, params)
    summaries.append(summarize(results))
    del results
    traced_pass()
    errors = verify(workload, summaries)
    (first, tails), (second, _) = passes
    for name in spans.COUNT_METRICS:
        if first[name] != second[name]:
            errors.append(
                f"{name} differs between traced passes: {first[name]} vs {second[name]}"
            )
    values = {
        name: first[name] if name in spans.COUNT_METRICS else (first[name] + second[name]) / 2
        for name in first
    }
    values["technology.ingest_s"] = ingest_s
    values["bench.trace_overhead"] = values["bench.traced_flow_s"] / untraced_s
    for layer, p in tails.items():
        calls = values[f"{layer}.calls"]
        tail = f"p{p}" if p else "not resolvable (0)"
        print(f"{layer}.ms_tail: {tail} of {calls} calls")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "info"], "passes": records}, fh)
    print(f"spans written to {path}")
    attempted = len(designs) * len(summaries)
    return finish(errors, attempted, len(designs), layer_specs, values)


if __name__ == "__main__":
    sys.exit(main())
