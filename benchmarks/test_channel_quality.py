"""Channel-router quality comparison (level A substrate).

Not a table in the paper, but the substrate the paper's baselines
stand on: compares the two detailed channel routers (greedy and
dogleg left-edge) against the density lower bound across a batch of
random channels, plus the three suites' actual channels from the
two-layer flow.
"""

from repro.channels import ChannelRoutingError, GreedyChannelRouter, LeftEdgeRouter
from repro.reporting import format_table

import random

from conftest import SUITE_NAMES, print_experiment


def random_problem(seed, length=40, nets=12):
    rng = random.Random(seed)
    top, bottom = [0] * length, [0] * length
    slots = [(s, c) for s in (0, 1) for c in range(length)]
    rng.shuffle(slots)
    i = 0
    for net in range(1, nets + 1):
        for _ in range(rng.randint(2, 4)):
            if i >= len(slots):
                break
            side, col = slots[i]
            i += 1
            (top if side == 0 else bottom)[col] = net
    from repro.channels import ChannelProblem

    return ChannelProblem(top=top, bottom=bottom)


ROUTERS = {
    "greedy": GreedyChannelRouter(),
    "left-edge": LeftEdgeRouter(),
}


def test_channel_router_quality(benchmark):
    def sweep():
        stats = {
            name: {"tracks": 0, "density": 0, "done": 0, "wire": 0, "vias": 0}
            for name in ROUTERS
        }
        for seed in range(40):
            problem = random_problem(seed)
            density = problem.density()
            for name, router in ROUTERS.items():
                try:
                    route = router.route(problem)
                except ChannelRoutingError:
                    continue
                route.check(problem)
                entry = stats[name]
                entry["tracks"] += route.tracks
                entry["density"] += density
                entry["done"] += 1
                entry["wire"] += route.wire_length(8, 8)
                entry["vias"] += route.via_count()
        return stats

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for name, entry in stats.items():
        done = entry["done"]
        rows.append([
            name,
            f"{done}/40",
            f"{entry['tracks'] / done:.2f}",
            f"{entry['density'] / done:.2f}",
            f"{entry['tracks'] / max(entry['density'], 1):.3f}",
            f"{entry['wire'] // done}",
            f"{entry['vias'] / done:.1f}",
        ])
    print_experiment(
        "Channel router quality on 40 random channels",
        format_table(
            ["Router", "Completed", "Avg tracks", "Avg density",
             "Tracks/density", "Avg wire", "Avg vias"],
            rows,
        ),
    )
    greedy = stats["greedy"]
    assert greedy["done"] == 40  # the greedy router never fails
    # All routers stay near the density lower bound (within 40%).
    for entry in stats.values():
        assert entry["tracks"] <= 1.4 * entry["density"] + entry["done"]


def test_suite_channels(benchmark, flow_results):
    """The actual channels of the two-layer flows, per suite."""

    def collect():
        rows = []
        for suite in SUITE_NAMES:
            result = flow_results[(suite, "two-layer")]
            tracks = result.channel_tracks
            densities = [
                spec.problem.density() for spec in result.global_route.specs
            ]
            rows.append([
                suite,
                len(tracks),
                sum(tracks),
                sum(densities),
                f"{sum(tracks) / max(1, sum(densities)):.3f}",
            ])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    print_experiment(
        "Two-layer flow channels: tracks vs density lower bound",
        format_table(
            ["Suite", "Channels", "Total tracks", "Total density", "Ratio"],
            rows,
        ),
    )
    for row in rows:
        assert float(row[4]) <= 1.6  # stays near the lower bound
