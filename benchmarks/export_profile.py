"""Dump an instrumented profile of the paper's benchmark suites.

Runs the selected flow on each suite inside its own
``instrument.collecting()`` block and writes one JSON document with the
per-suite span trees, counters and gauges — the seed of the benchmark
trajectory: commit the artifact, diff it across PRs, and any hot-path
regression (nodes expanded, wall time per phase) shows up as a numeric
delta rather than an anecdote.

Usage::

    PYTHONPATH=src python benchmarks/export_profile.py \
        [--out benchmarks/artifacts/BENCH_profile.json] \
        [--suites ami33 xerox ex3] [--flow overcell]

The event log is omitted from the artifact (``events_total`` is kept)
so the file stays small and diffs stay readable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro import instrument  # noqa: E402
from repro.bench_suite import SUITES  # noqa: E402
from repro.flow import FLOWS  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), "artifacts", "BENCH_profile.json"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--suites", nargs="+", default=["ami33", "xerox", "ex3"],
        choices=sorted(SUITES),
    )
    parser.add_argument(
        "--flow", default="overcell", choices=sorted(FLOWS)
    )
    args = parser.parse_args(argv)

    runs = {}
    for suite in args.suites:
        design = SUITES[suite]()
        with instrument.collecting() as col:
            result = FLOWS[args.flow](design)
        print(result.summary())
        runs[suite] = {
            "summary": {
                "layout_area": result.layout_area,
                "wire_length": result.wire_length,
                "via_count": result.via_count,
                "completion": result.completion,
            },
            "profile": instrument.snapshot(col, include_events=False),
        }

    doc = {"format": "repro-bench-profile", "flow": args.flow, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench profile written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
