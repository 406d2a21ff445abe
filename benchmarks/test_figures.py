"""Figures 1-3 - the paper's illustrations, regenerated.

* Figure 1: a level B instance and its Track Intersection Graph.
* Figure 2: the Path Selection Trees for net B of that instance.
* Figure 3: the level B routing of the ami33 example (SVG + ASCII).

Artifacts are written into ``benchmarks/artifacts/``.
"""

import os

from repro.core.search import MBFSearch, candidate_paths
from repro.core.tig import TrackIntersectionGraph
from repro.geometry import Point, Rect
from repro.grid import TrackSet
from repro.viz import render_levelb_ascii, render_pst, render_tig
from repro.viz.svg import svg_flow_result

from conftest import print_experiment

ARTIFACTS = os.path.join(os.path.dirname(__file__), "artifacts")


def figure1_instance():
    tig = TrackIntersectionGraph(
        TrackSet([0, 10, 20, 30, 40, 50]), TrackSet([0, 10, 20, 30, 40])
    )
    tig.register_net(1, [Point(0, 0), Point(20, 40)])   # net A
    tig.register_net(2, [Point(10, 10), Point(50, 30)])  # net B
    tig.register_net(3, [Point(40, 0), Point(40, 40)])   # net C
    tig.add_obstacle(Rect(25, 15, 35, 25))               # obstacle O1
    return tig


def test_figure1(benchmark):
    """Level B instance + TIG; the obstacle removes edge (v4,h3)."""
    tig = benchmark.pedantic(figure1_instance, rounds=1, iterations=1)
    art = render_tig(tig)
    # Bipartite sanity and the obstacle's missing edge.
    v4_line = next(l for l in art.splitlines() if l.strip().startswith("v4:"))
    assert "h3" not in v4_line
    usable = sum(tig.edge_usable(v, h) for v in range(6) for h in range(5))
    assert usable == 6 * 5 - 1 - 6  # obstacle + 6 terminals
    print_experiment("Figure 1: Track Intersection Graph", art)


def test_figure2(benchmark):
    """Path Selection Trees for net B: all minimum-corner paths."""
    tig = figure1_instance()
    source, target = tig.terminals_of(2)

    def search():
        return MBFSearch(tig.grid, 2, source, target).run()

    result = benchmark.pedantic(search, rounds=1, iterations=1)
    assert result.found
    assert result.min_corners == 1
    body = []
    for i, root in enumerate(result.roots):
        body.append(f"Tree {i + 1} (rooted at {root.name()}):")
        body.append(render_pst(root, result.leaves))
    body.append("")
    for cand in candidate_paths(result, tig.grid):
        seq = ", ".join(cand.leaf.track_sequence())
        body.append(
            f"candidate ({seq}, terminal): corners={cand.corner_count} "
            f"length={cand.length}"
        )
    print_experiment("Figure 2: Path Selection Trees for net B", "\n".join(body))


def test_figure3(benchmark, flow_results):
    """Level B routing of ami33, rendered to SVG and ASCII."""
    overcell = flow_results[("ami33", "overcell")]

    def render():
        return svg_flow_result(overcell), render_levelb_ascii(
            overcell.levelb,
            width=100,
            cells=overcell.placement.design.cells.values(),
        )

    svg, ascii_art = benchmark.pedantic(render, rounds=1, iterations=1)
    os.makedirs(ARTIFACTS, exist_ok=True)
    path = os.path.join(ARTIFACTS, "figure3_ami33_levelb.svg")
    with open(path, "w") as fh:
        fh.write(svg)
    assert svg.startswith("<svg") and "<line" in svg
    assert overcell.levelb.total_wire_length > 0
    print_experiment(
        f"Figure 3: level B routing of ami33 (SVG at {path})", ascii_art
    )
