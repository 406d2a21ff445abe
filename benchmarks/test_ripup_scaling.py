"""Rip-up cost scaling: O(cells the net touches), not O(grid).

The seed implementation's rip-up masked the full occupancy
arrays (``2*h*v`` slots scanned per rip); the ledger-based ``rip_net``
replays only the ripped net's own mutation records.  This experiment
rips an identical fixed-size net off grids of growing size and checks
that the measured work (journal undo cells) stays constant while the
grid grows by orders of magnitude.  Wall time is reported for context
but not asserted (CI machines are noisy).
"""

import time

from repro import instrument
from repro.instrument.names import TXN_UNDO_CELLS
from repro.grid import RoutingGrid
from repro.grid.tracks import TrackSet
from repro.reporting import format_table

from conftest import print_experiment

NET_ID = 7
NET_SPAN = 40  # cells per direction, identical on every grid


def make_grid(n: int) -> RoutingGrid:
    tracks = TrackSet.uniform(0, 8 * (n - 1), 8)
    return RoutingGrid(tracks, tracks)


def wire_fixed_net(grid: RoutingGrid) -> None:
    grid.occupy_h(5, 0, NET_SPAN - 1, NET_ID)
    grid.occupy_corner(NET_SPAN - 1, 5, NET_ID)
    grid.occupy_v(NET_SPAN - 1, 5, 5 + NET_SPAN - 1, NET_ID)


def ledger_cells(grid: RoutingGrid, net_id: int) -> int:
    """Slots a net's ledger records: span entries plus both slots per corner."""
    return sum(
        2 if entry[0] == "c" else entry[3] - entry[2] + 1
        for entry in grid.ledger_entries(net_id)
    )


def measure(n: int, repeats: int = 50):
    grid = make_grid(n)
    wire_fixed_net(grid)
    recorded = ledger_cells(grid, NET_ID)
    with instrument.collecting() as col:
        start = time.perf_counter()
        for _ in range(repeats):
            txn = grid.begin()
            freed = grid.rip_net(NET_ID)
            txn.rollback()  # restores wiring + ledger for the next round
        elapsed = (time.perf_counter() - start) / repeats
    undo_cells = col.counters[TXN_UNDO_CELLS] // repeats
    return {
        "grid": f"{n}x{n}",
        "slots": 2 * n * n,
        "net_cells": recorded,
        "freed": freed,
        "undo_cells": undo_cells,
        "rip+rollback_us": round(elapsed * 1e6, 1),
    }


def test_ripup_work_independent_of_grid_size():
    sizes = (100, 200, 400, 800)
    rows = [measure(n) for n in sizes]
    body = format_table(
        ["grid", "slots", "net_cells", "freed", "undo_cells", "rip+rollback_us"],
        [[r[k] for k in r] for r in rows],
    )
    print_experiment(
        "Rip-up scaling: ledger replay vs grid size", body
    )
    # The work metric must be flat across a 64x growth in grid slots.
    undo = [r["undo_cells"] for r in rows]
    assert len(set(undo)) == 1, f"undo cells varied with grid size: {undo}"
    net_cells = [r["net_cells"] for r in rows]
    assert len(set(net_cells)) == 1
    # And tiny compared to the arrays a full scan would visit.
    assert undo[0] < rows[0]["slots"] // 10
