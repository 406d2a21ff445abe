"""The two-dimensional occupancy array behind the Track Intersection Graph.

The paper stores the TIG state "in a two-dimensional array which is
updated after the completion of each two-terminal connection", an
``O(t)`` operation per segment (section 3.4).  This module is that
array, plus the **transactional state layer** the routing stack builds
on: every mutation is recorded in a per-net ledger (so rip-up is
``O(cells the net touches)``, never a full-array scan) and, while a
:class:`GridTransaction` is open, in an undo journal (so speculative
route/undo cycles - refinement, rip-up-and-reroute, what-if routability
probes - roll back in time proportional to the cells they touched).

Model
-----
Under the reserved-layer model the two over-cell layers split by
direction (metal4 horizontal, metal3 vertical), so each track
intersection has **two independent ownership slots**:

* ``h`` - a horizontal wire passing through the intersection,
* ``v`` - a vertical wire passing through it.

Wires of *different* nets may cross at an intersection (different
layers), but may not share a track span.  A **corner** (m3-m4 via)
occupies both slots, as does a terminal's via stack.  Obstacles may
block one direction (e.g. pre-existing m4 power straps inside a macro)
or both (sensitive circuitry excluded by the user).

Slot encoding: ``0`` free, ``-1`` obstacle, ``>= 1`` net id.

Transactions
------------
::

    txn = grid.begin()
    grid.rip_net(net_id)
    ... reroute ...
    txn.rollback()          # or txn.commit()

or, context-managed (commit on success, rollback on exception)::

    with grid.transaction():
        grid.commit_path(net_id, points, corners)

Transactions nest as savepoints: an inner ``commit`` merges its journal
entries into the enclosing transaction, an inner ``rollback`` undoes
only the entries recorded since the inner ``begin``.  Journal entries
are recorded only while at least one transaction is open, so the
untransacted fast path pays a single truthiness test per mutation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro import instrument
from repro.instrument.names import (
    OCC_CELLS_TOUCHED,
    TXN_COMMITS,
    TXN_ROLLBACKS,
    TXN_UNDO_CELLS,
)
from repro.geometry import Interval, Rect
from repro.grid.backend import OccupancyBackend, get_backend
from repro.grid.tracks import TrackSet

FREE: int = 0
OBSTACLE: int = -1

# Ledger entry tags: ("h", h_idx, v_lo, v_hi) for a horizontal span,
# ("v", v_idx, h_lo, h_hi) for a vertical span, ("c", v_idx, h_idx)
# for a both-slot claim (corner via or terminal stack).
_LEDGER_H = "h"
_LEDGER_V = "v"
_LEDGER_C = "c"


@dataclass(frozen=True)
class GridSnapshot:
    """An immutable copy of the grid's full mutable state.

    Used for exactness checks around speculative routing: capture one
    before a rip/reroute cycle and compare with :meth:`RoutingGrid.matches`
    after rollback.  Arrays are read-only copies.
    """

    h_owner: np.ndarray
    v_owner: np.ndarray
    unrouted_terms: np.ndarray


@dataclass(frozen=True)
class WindowSnapshot:
    """A copy of the grid's state over one rectangular index window.

    The export format behind speculative parallel routing
    (:mod:`repro.dispatch`): a worker receives only the window a net's
    bounded search can read, rebuilds an isolated sub-grid from it with
    :meth:`to_grid`, and routes on that.  At merge time
    :meth:`RoutingGrid.window_matches` proves the live grid still equals
    the snapshot over the window, which is what makes replaying the
    speculative path equivalent to having routed serially.

    Track coordinates are carried verbatim (true geometric values), so
    geometry produced on the sub-grid is already in global coordinates;
    only track *indices* shift by ``v_lo`` / ``h_lo``.  Arrays keep the
    global net ids and are read-only copies.
    """

    v_lo: int
    h_lo: int
    vcoords: tuple[int, ...]
    hcoords: tuple[int, ...]
    h_owner: np.ndarray
    v_owner: np.ndarray
    unrouted_terms: np.ndarray
    #: Track counts of the grid the window was cut from.  A worker uses
    #: them to tell a window edge that *is* the grid edge (where
    #: clipping a search region is exactly what serial routing does)
    #: from a mid-grid window edge (where clipping would diverge from
    #: serial and the speculation must be abandoned).
    global_vtracks: int = 0
    global_htracks: int = 0

    @property
    def num_vtracks(self) -> int:
        return len(self.vcoords)

    @property
    def num_htracks(self) -> int:
        return len(self.hcoords)

    def to_grid(self) -> "RoutingGrid":
        """An isolated :class:`RoutingGrid` loaded with this window.

        The sub-grid's arrays are fresh writable copies; mutating it
        never touches the grid the snapshot came from.  Per-net ledgers
        start empty: the sub-grid exists to *search*, and speculative
        paths are re-committed on the authoritative grid by the merger.

        Sub-grids are always **dense** regardless of the backend the
        snapshot was cut from: a window is small by construction, so
        the dense representation is both the fastest to search and the
        one whose footprint the wave planner already bounded.
        """
        grid = RoutingGrid(
            TrackSet(self.vcoords), TrackSet(self.hcoords), backend="dense"
        )
        grid._h_owner[:] = self.h_owner
        grid._v_owner[:] = self.v_owner
        grid._unrouted_terms[:] = self.unrouted_terms
        return grid


class GridTransaction:
    """A savepoint over the grid's undo journal.

    Obtained from :meth:`RoutingGrid.begin` (or the
    :meth:`RoutingGrid.transaction` context manager).  Exactly one of
    :meth:`commit` / :meth:`rollback` must be called, innermost
    transaction first; the grid enforces the nesting discipline.
    """

    __slots__ = ("_grid", "_savepoint", "closed")

    def __init__(self, grid: "RoutingGrid", savepoint: int) -> None:
        self._grid = grid
        self._savepoint = savepoint
        self.closed = False

    def commit(self) -> None:
        """Keep every mutation recorded since ``begin``."""
        self._grid._commit_txn(self)

    def rollback(self) -> int:
        """Undo every mutation recorded since ``begin``.

        Returns the number of array cells restored (the ``txn.undo_cells``
        measure) - proportional to the cells the transaction touched,
        never to the grid size.
        """
        return self._grid._rollback_txn(self)


class RoutingGrid:
    """Track sets plus occupancy state for one routing layer pair.

    Horizontal scans are row slices of ``_h_owner`` (indexed
    ``[h_track][v_track]``) and vertical scans are row slices of
    ``_v_owner`` (indexed ``[v_track][h_track]``), so both are cache
    friendly and vectorisable with numpy.

    All mutation goes through :meth:`occupy_h` / :meth:`occupy_v` /
    :meth:`occupy_corner` / :meth:`reserve_terminal` /
    :meth:`mark_terminal_routed` (or :meth:`commit_path`, which batches
    them), which is what lets the per-net ledger and the transaction
    journal stay exact.

    Storage lives in a pluggable :class:`~repro.grid.backend.
    OccupancyBackend` selected by name (``"dense"`` by default,
    ``"sparse"`` for paged first-touch chunks — docs/SCALING.md); the
    grid's logic is backend-agnostic and the backends are pinned
    behaviourally identical by route-digest parity tests.
    """

    def __init__(
        self,
        vtracks: TrackSet,
        htracks: TrackSet,
        backend: str | OccupancyBackend = "dense",
    ) -> None:
        self.vtracks = vtracks
        self.htracks = htracks
        nv, nh = len(vtracks), len(htracks)
        if isinstance(backend, str):
            backend = get_backend(backend)(nh, nv)
        elif (backend.num_htracks, backend.num_vtracks) != (nh, nv):
            raise ValueError(
                f"backend shape ({backend.num_htracks}, {backend.num_vtracks})"
                f" does not match grid ({nh}, {nv})"
            )
        #: The storage engine; all array state lives here.
        self.backend = backend
        self._h_owner = backend.h_owner
        self._v_owner = backend.v_owner
        # Unrouted-terminal density map, read by the cost function's
        # ``dup`` term. Indexed [h][v] like _h_owner.
        self._unrouted_terms = backend.unrouted_terms
        # Per-net mutation ledger: every span/cell a net claimed, in
        # commit order.  Rip-up replays it instead of scanning arrays.
        self._net_ledger: dict[int, list[tuple]] = {}
        # Per-net track footprints (span, guard) for wide net classes.
        # Only nets wider than the default single-track claim appear
        # here; footprint_of() reads (1, 0) for every other net.
        self._footprints: dict[int, tuple[int, int]] = {}
        # Undo journal + open-transaction stack (savepoint semantics).
        self._journal: list[tuple] = []
        self._txns: list[GridTransaction] = []

    # ------------------------------------------------------------------
    # Basic shape / coordinate helpers
    # ------------------------------------------------------------------
    @property
    def num_vtracks(self) -> int:
        return len(self.vtracks)

    @property
    def num_htracks(self) -> int:
        return len(self.htracks)

    @property
    def num_intersections(self) -> int:
        return self.num_vtracks * self.num_htracks

    @property
    def backend_name(self) -> str:
        """Registry name of the storage backend."""
        return self.backend.name

    def memory_bytes(self) -> int:
        """Bytes the occupancy stores actually hold right now."""
        return self.backend.memory_bytes()

    def dense_equiv_bytes(self) -> int:
        """What dense arrays of this grid's shape would always cost."""
        return self.backend.dense_equiv_bytes()

    def _check_indices(self, v_idx: int, h_idx: int) -> None:
        """Reject out-of-range (notably negative) track indices.

        Both the ``TrackSet`` coordinate lists and the numpy ownership
        arrays accept negative indices via Python wrap-around, which
        silently turns an upstream off-by-one into a claim on the far
        edge of the grid.  Index-taking accessors call this instead.
        """
        if not 0 <= v_idx < self.num_vtracks:
            raise IndexError(
                f"v-track index {v_idx} out of range [0, {self.num_vtracks - 1}]"
            )
        if not 0 <= h_idx < self.num_htracks:
            raise IndexError(
                f"h-track index {h_idx} out of range [0, {self.num_htracks - 1}]"
            )

    def coord_of(self, v_idx: int, h_idx: int) -> tuple[int, int]:
        """Geometric ``(x, y)`` of intersection ``(v_idx, h_idx)``."""
        self._check_indices(v_idx, h_idx)
        return self.vtracks[v_idx], self.htracks[h_idx]

    # ------------------------------------------------------------------
    # Per-net track footprints (width classes)
    # ------------------------------------------------------------------
    def set_net_footprint(self, net_id: int, span: int, guard: int = 0) -> None:
        """Declare that ``net_id`` claims a multi-track footprint.

        A wide net's wire covers ``span`` adjacent tracks (its base
        track plus ``span - 1`` above/right of it) and additionally
        keeps ``guard`` same-direction tracks clear on *each* side, per
        the technology's width-dependent spacing tables
        (:meth:`~repro.technology.Technology.net_footprint`).  Every
        occupy primitive and availability query on this grid expands
        the net's claims accordingly; the expansion clamps at grid
        edges, where the routing region itself bounds the wiring.

        ``(1, 0)`` is the single-track signal footprint and is not
        stored: the occupy primitives and :meth:`usable_window` expand
        it to the base track alone.
        """
        if span < 1 or guard < 0:
            raise ValueError("footprint needs span >= 1 and guard >= 0")
        if net_id < 1:
            raise ValueError("net ids must be >= 1")
        if span == 1 and guard == 0:
            self._footprints.pop(net_id, None)
        else:
            self._footprints[net_id] = (span, guard)

    def footprint_of(self, net_id: int) -> tuple[int, int]:
        """The ``(span, guard)`` footprint of ``net_id`` (default ``(1, 0)``)."""
        return self._footprints.get(net_id, (1, 0))

    def footprint_reach(self, net_id: int) -> int:
        """Tracks past the base track the net's claims can extend."""
        span, guard = self.footprint_of(net_id)
        return span - 1 + guard

    def max_footprint_reach(self) -> int:
        """Largest :meth:`footprint_reach` over all declared footprints."""
        if not self._footprints:
            return 0
        return max(s - 1 + g for s, g in self._footprints.values())

    @staticmethod
    def _expand_rows(base: int, fp: tuple[int, int], n: int) -> range:
        """Track rows a footprinted claim at ``base`` touches, clamped."""
        span, guard = fp
        return range(max(0, base - guard), min(n - 1, base + span - 1 + guard) + 1)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> GridTransaction:
        """Open a transaction (savepoint) over the undo journal."""
        txn = GridTransaction(self, len(self._journal))
        self._txns.append(txn)
        return txn

    @contextmanager
    def transaction(self) -> Iterator[GridTransaction]:
        """Context-managed transaction: commit on success, rollback on
        exception.  An explicit early ``commit()``/``rollback()`` inside
        the block is honoured."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if not txn.closed:
                txn.rollback()
            raise
        if not txn.closed:
            txn.commit()

    @property
    def in_transaction(self) -> bool:
        return bool(self._txns)

    @property
    def journal_len(self) -> int:
        """Undo-journal entries currently recorded.

        Entries exist only while a transaction is open (the outermost
        commit clears the journal, rollbacks pop their own entries), so
        a nonzero value with :attr:`in_transaction` false indicates a
        balance bug.  Exposed for the ``grid.journal`` audit rule in
        :mod:`repro.check`.
        """
        return len(self._journal)

    def _require_top(self, txn: GridTransaction) -> None:
        if txn.closed:
            raise RuntimeError("transaction already closed")
        if not self._txns or self._txns[-1] is not txn:
            raise RuntimeError(
                "transactions must close innermost-first (savepoint nesting)"
            )

    def _commit_txn(self, txn: GridTransaction) -> None:
        self._require_top(txn)
        self._txns.pop()
        txn.closed = True
        if not self._txns:
            # Outermost commit: the journal is no longer reachable.
            self._journal.clear()
        inst = instrument.active()
        if inst.enabled:
            inst.count(TXN_COMMITS)

    def _rollback_txn(self, txn: GridTransaction) -> int:
        self._require_top(txn)
        self._txns.pop()
        txn.closed = True
        undone = 0
        H, V = self._h_owner, self._v_owner
        while len(self._journal) > txn._savepoint:
            rec = self._journal.pop()
            tag = rec[0]
            if tag == "h":
                _, net_id, h_idx, v_lo, prior = rec
                H[h_idx, v_lo : v_lo + len(prior)] = prior
                undone += len(prior)
                self._ledger_pop(net_id)
            elif tag == "v":
                _, net_id, v_idx, h_lo, prior = rec
                V[v_idx, h_lo : h_lo + len(prior)] = prior
                undone += len(prior)
                self._ledger_pop(net_id)
            elif tag == "c":
                _, net_id, v_idx, h_idx, prior_h, prior_v, reserved = rec
                H[h_idx, v_idx] = prior_h
                V[v_idx, h_idx] = prior_v
                if reserved:
                    self._unrouted_terms[h_idx, v_idx] -= 1
                undone += 2
                self._ledger_pop(net_id)
            elif tag == "m":
                _, v_idx, h_idx = rec
                self._unrouted_terms[h_idx, v_idx] += 1
                undone += 1
            else:  # "rip": restore the net's wiring and its ledger
                _, net_id, ledger = rec
                undone += self._replay_ledger(net_id, ledger)
                self._net_ledger[net_id] = ledger
        inst = instrument.active()
        if inst.enabled:
            inst.count(TXN_ROLLBACKS)
            inst.count(TXN_UNDO_CELLS, undone)
        return undone

    def _ledger_pop(self, net_id: int) -> None:
        if net_id >= 1:
            self._net_ledger[net_id].pop()

    def _ledger_push(self, net_id: int, entry: tuple) -> None:
        if net_id >= 1:
            self._net_ledger.setdefault(net_id, []).append(entry)

    def _replay_ledger(self, net_id: int, ledger: Iterable[tuple]) -> int:
        """Re-claim every ledger cell for ``net_id`` (rip-up undo)."""
        H, V = self._h_owner, self._v_owner
        cells = 0
        for entry in ledger:
            tag = entry[0]
            if tag == _LEDGER_H:
                _, h_idx, v_lo, v_hi = entry
                H[h_idx, v_lo : v_hi + 1] = net_id
                cells += v_hi - v_lo + 1
            elif tag == _LEDGER_V:
                _, v_idx, h_lo, h_hi = entry
                V[v_idx, h_lo : h_hi + 1] = net_id
                cells += h_hi - h_lo + 1
            else:
                _, v_idx, h_idx = entry
                H[h_idx, v_idx] = net_id
                V[v_idx, h_idx] = net_id
                cells += 2
        return cells

    # ------------------------------------------------------------------
    # Snapshots (cheap immutable copies for exactness checks)
    # ------------------------------------------------------------------
    def snapshot(self) -> GridSnapshot:
        """An immutable copy of the full mutable state.

        Always dense numpy arrays, whatever the backend — which is what
        makes snapshots from different backends directly comparable
        (the backend-parity property tests digest these).
        """
        arrays = self.backend.dense_arrays()
        for arr in arrays:
            arr.setflags(write=False)
        return GridSnapshot(*arrays)

    def matches(self, snap: GridSnapshot) -> bool:
        """Is the grid byte-identical to ``snap``?"""
        return bool(
            np.array_equal(np.asarray(self._h_owner), snap.h_owner)
            and np.array_equal(np.asarray(self._v_owner), snap.v_owner)
            and np.array_equal(
                np.asarray(self._unrouted_terms), snap.unrouted_terms
            )
        )

    def window_snapshot(self, v_iv: Interval, h_iv: Interval) -> WindowSnapshot:
        """Copy the state of the index window ``v_iv`` x ``h_iv``.

        Intervals are clamped to the grid, so callers may pass padded
        boxes that run past an edge — clipping at the window boundary
        then coincides with clipping at the grid boundary, which is what
        keeps windowed cost-model reads exact near edges.  A window
        lying *entirely* off-grid is an upstream indexing bug and
        raises ``IndexError`` instead of clamping to a sliver.
        """
        if v_iv.hi < 0 or v_iv.lo >= self.num_vtracks:
            bad = v_iv.hi if v_iv.hi < 0 else v_iv.lo
            raise IndexError(
                f"v-track window index {bad} out of range "
                f"[0, {self.num_vtracks - 1}]"
            )
        if h_iv.hi < 0 or h_iv.lo >= self.num_htracks:
            bad = h_iv.hi if h_iv.hi < 0 else h_iv.lo
            raise IndexError(
                f"h-track window index {bad} out of range "
                f"[0, {self.num_htracks - 1}]"
            )
        v_iv = self.vtracks.clip_indices(v_iv)
        h_iv = self.htracks.clip_indices(h_iv)
        hs = slice(h_iv.lo, h_iv.hi + 1)
        vs = slice(v_iv.lo, v_iv.hi + 1)
        # np.array (not .copy()) so the copy works whether the backend's
        # slice read returned a dense view or an already-fresh gather.
        arrays = (
            np.array(self._h_owner[hs, vs]),
            np.array(self._v_owner[vs, hs]),
            np.array(self._unrouted_terms[hs, vs]),
        )
        for arr in arrays:
            arr.setflags(write=False)
        return WindowSnapshot(
            v_lo=v_iv.lo,
            h_lo=h_iv.lo,
            vcoords=tuple(self.vtracks.coords[vs]),
            hcoords=tuple(self.htracks.coords[hs]),
            h_owner=arrays[0],
            v_owner=arrays[1],
            unrouted_terms=arrays[2],
            global_vtracks=self.num_vtracks,
            global_htracks=self.num_htracks,
        )

    def window_matches(self, snap: WindowSnapshot) -> bool:
        """Is the grid byte-identical to ``snap`` over its window?

        The speculation-validity test: equality proves every cell a
        speculative search could have read still holds the value it saw,
        so the speculative result equals what a serial search would
        produce right now.

        A snapshot whose window does not lie inside this grid (it was
        cut from a different or larger grid) can never match and
        returns ``False`` outright — previously this case leaned on
        numpy's silent slice clamping to produce a shape mismatch,
        which not every backend store reproduces.
        """
        if (
            snap.v_lo < 0
            or snap.h_lo < 0
            or snap.v_lo + snap.num_vtracks > self.num_vtracks
            or snap.h_lo + snap.num_htracks > self.num_htracks
        ):
            return False
        hs = slice(snap.h_lo, snap.h_lo + snap.num_htracks)
        vs = slice(snap.v_lo, snap.v_lo + snap.num_vtracks)
        return bool(
            np.array_equal(self._h_owner[hs, vs], snap.h_owner)
            and np.array_equal(self._v_owner[vs, hs], snap.v_owner)
            and np.array_equal(self._unrouted_terms[hs, vs], snap.unrouted_terms)
        )

    # ------------------------------------------------------------------
    # Obstacles and terminals
    # ------------------------------------------------------------------
    def add_obstacle(
        self, rect: Rect, *, block_h: bool = True, block_v: bool = True
    ) -> int:
        """Block every intersection inside ``rect`` (coordinate space).

        Returns the number of intersections newly blocked.  Blocking a
        cell already owned by a net raises: obstacles must be declared
        before routing starts (which is also what keeps the per-net
        ledger's cells exclusively net-owned).
        """
        vr = self.vtracks.index_range(rect.x1, rect.x2)
        hr = self.htracks.index_range(rect.y1, rect.y2)
        if len(vr) == 0 or len(hr) == 0:
            return 0
        blocked = 0
        hs = slice(hr.start, hr.stop)
        vs = slice(vr.start, vr.stop)
        h_block = np.asarray(self._h_owner[hs, vs])
        v_block = np.asarray(self._v_owner[vs, hs])
        if block_h:
            if (h_block > 0).any():
                raise ValueError("obstacle overlaps routed wiring (h)")
            blocked += int((h_block != OBSTACLE).sum())
            self._h_owner[hs, vs] = OBSTACLE
        if block_v:
            if (v_block > 0).any():
                raise ValueError("obstacle overlaps routed wiring (v)")
            if not block_h:
                blocked += int((v_block != OBSTACLE).sum())
            self._v_owner[vs, hs] = OBSTACLE
        return blocked

    def reserve_terminal(self, v_idx: int, h_idx: int, net_id: int) -> None:
        """Claim an intersection for a net's terminal via stack.

        Terminal connections from level B nets down to m1/m2 happen
        only at terminal locations (paper section 2), so the stack
        blocks both directions for every other net from the outset.
        """
        if net_id < 1:
            raise ValueError("net ids must be >= 1")
        self._check_indices(v_idx, h_idx)
        prior_h = int(self._h_owner[h_idx, v_idx])
        prior_v = int(self._v_owner[v_idx, h_idx])
        for current in (prior_h, prior_v):
            if current not in (FREE, net_id):
                raise ValueError(
                    f"terminal at ({v_idx},{h_idx}) collides with owner {current}"
                )
        # A wide terminal's anchor covers the footprint block —
        # best-effort: terminal pins sit at fixed physical positions the
        # width model cannot move, so cells already held by another
        # net's stack are simply skipped.  Wire claims reaching the
        # terminal still pre-check the full footprint, so the router
        # routes around (or fails) such pinched terminals instead of
        # shorting.  A signal net's block is the anchor alone.
        fp = self.footprint_of(net_id)
        extra: list[tuple[int, int]] = []
        for v in self._expand_rows(v_idx, fp, self.num_vtracks):
            for h in self._expand_rows(h_idx, fp, self.num_htracks):
                if (v, h) == (v_idx, h_idx):
                    continue
                if self._h_owner[h, v] not in (FREE, net_id) or (
                    self._v_owner[v, h] not in (FREE, net_id)
                ):
                    continue
                extra.append((v, h))
        if self._txns:
            self._journal.append(
                ("c", net_id, v_idx, h_idx, prior_h, prior_v, True)
            )
        self._h_owner[h_idx, v_idx] = net_id
        self._v_owner[v_idx, h_idx] = net_id
        self._unrouted_terms[h_idx, v_idx] += 1
        self._ledger_push(net_id, (_LEDGER_C, v_idx, h_idx))
        for v, h in extra:
            if self._txns:
                self._journal.append(
                    (
                        "c", net_id, v, h,
                        int(self._h_owner[h, v]), int(self._v_owner[v, h]),
                        False,
                    )
                )
            self._h_owner[h, v] = net_id
            self._v_owner[v, h] = net_id
            self._ledger_push(net_id, (_LEDGER_C, v, h))

    def mark_terminal_routed(self, v_idx: int, h_idx: int) -> None:
        """Drop one unrouted-terminal mark at an intersection."""
        self._check_indices(v_idx, h_idx)
        if self._unrouted_terms[h_idx, v_idx] > 0:
            if self._txns:
                self._journal.append(("m", v_idx, h_idx))
            self._unrouted_terms[h_idx, v_idx] -= 1

    # ------------------------------------------------------------------
    # Availability queries
    # ------------------------------------------------------------------
    def corner_free(self, v_idx: int, h_idx: int, net_id: int) -> bool:
        """Can ``net_id`` place a corner/via at this intersection?"""
        self._check_indices(v_idx, h_idx)
        cell = self.usable_window(net_id, Interval(v_idx, v_idx), Interval(h_idx, h_idx))
        return bool(cell[2][0, 0])

    def h_slot(self, v_idx: int, h_idx: int) -> int:
        self._check_indices(v_idx, h_idx)
        return int(self._h_owner[h_idx, v_idx])

    def v_slot(self, v_idx: int, h_idx: int) -> int:
        self._check_indices(v_idx, h_idx)
        return int(self._v_owner[v_idx, h_idx])

    def usable_window(
        self, net_id: int, v_iv: Interval, h_iv: Interval
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where ``net_id`` may wire or corner inside one index window.

        Returns ``(h_ok, v_ok, corner_ok)``, boolean arrays indexed
        ``[h - h_iv.lo, v - v_iv.lo]``: ``h_ok`` marks cells a
        horizontal wire of the net may pass, ``v_ok`` cells a vertical
        wire may pass, and ``corner_ok`` cells that accept its corner
        via.  A slot is usable when it is free or already the net's
        own.  Each mask cell is the AND over the block the net's claim
        there would cover (:meth:`_expand_rows`): the footprint rows of
        its wire direction for ``h_ok`` / ``v_ok``, the whole
        rows-by-columns block of both slots for ``corner_ok``.  A signal
        net's block is the cell itself.

        The owner arrays are read once, over the window padded by the
        net's footprint reach and clamped at the grid edges; cells past
        an edge count as usable, exactly as the clamped block skips
        them.  The window itself must lie inside the grid.
        """
        nv, nh = self.num_vtracks, self.num_htracks
        if not (0 <= v_iv.lo and v_iv.hi < nv and 0 <= h_iv.lo and h_iv.hi < nh):
            raise IndexError(
                f"window {v_iv} x {h_iv} outside the {nv}x{nh} track grid"
            )
        span, guard = self.footprint_of(net_id)
        block = span + 2 * guard
        # Padded bounds before clamping: row b's block is b - guard ..
        # b + span - 1 + guard, so the pad is guard below and
        # block - 1 - guard above.
        v0, v1 = v_iv.lo - guard, v_iv.hi + block - 1 - guard
        h0, h1 = h_iv.lo - guard, h_iv.hi + block - 1 - guard
        cv0, cv1 = max(0, v0), min(nv - 1, v1)
        ch0, ch1 = max(0, h0), min(nh - 1, h1)
        hs, vs = slice(ch0, ch1 + 1), slice(cv0, cv1 + 1)
        inner = (slice(ch0 - h0, ch1 - h0 + 1), slice(cv0 - v0, cv1 - v0 + 1))
        shape = (h1 - h0 + 1, v1 - v0 + 1)
        h_free = np.ones(shape, dtype=bool)
        v_free = np.ones(shape, dtype=bool)
        owners = np.asarray(self._h_owner[hs, vs])
        h_free[inner] = (owners == FREE) | (owners == net_id)
        owners = np.asarray(self._v_owner[vs, hs])
        v_free[inner] = ((owners == FREE) | (owners == net_id)).T
        cols = slice(guard, guard + v_iv.count)
        rows = slice(guard, guard + h_iv.count)
        h_ok = _block_and(h_free, block, axis=0)[:, cols]
        v_ok = _block_and(v_free, block, axis=1)[rows, :]
        both = h_free & v_free
        corner_ok = _block_and(_block_and(both, block, axis=0), block, axis=1)
        return h_ok, v_ok, corner_ok

    def free_span_h(
        self, h_idx: int, v_idx: int, net_id: int, within: Interval | None = None
    ) -> Interval | None:
        """Maximal v-index interval around ``v_idx`` usable on h-track.

        A cell is usable when the net's horizontal wire may pass it
        (:meth:`usable_window`).  Returns ``None`` when the entry cell
        itself is unusable.  ``within`` clips the search window (the
        paper bounds each search to a rectangle around the terminals) —
        and is applied *before* the store is read, so a bounded search
        on a sparse backend never materialises a full track row.
        """
        lo, hi = self._clip(within, self.num_vtracks)
        if not lo <= v_idx <= hi:
            return None
        h_ok = self.usable_window(net_id, Interval(lo, hi), Interval(h_idx, h_idx))[0]
        return _run_around(h_ok[0], v_idx - lo, lo)

    def free_span_v(
        self, v_idx: int, h_idx: int, net_id: int, within: Interval | None = None
    ) -> Interval | None:
        """Maximal h-index interval around ``h_idx`` usable on v-track."""
        lo, hi = self._clip(within, self.num_htracks)
        if not lo <= h_idx <= hi:
            return None
        v_ok = self.usable_window(net_id, Interval(v_idx, v_idx), Interval(lo, hi))[1]
        return _run_around(v_ok[:, 0], h_idx - lo, lo)

    @staticmethod
    def _clip(within: Interval | None, n: int) -> tuple[int, int]:
        if within is None:
            return 0, n - 1
        return max(0, within.lo), min(n - 1, within.hi)

    def span_usable_h(
        self, h_idx: int, v_lo: int, v_hi: int, net_id: int
    ) -> bool:
        """Is the whole h-track span ``[v_lo, v_hi]`` usable by the net?"""
        window = Interval.spanning(v_lo, v_hi)
        return bool(self.usable_window(net_id, window, Interval(h_idx, h_idx))[0].all())

    def span_usable_v(
        self, v_idx: int, h_lo: int, h_hi: int, net_id: int
    ) -> bool:
        window = Interval.spanning(h_lo, h_hi)
        return bool(self.usable_window(net_id, Interval(v_idx, v_idx), window)[1].all())

    # ------------------------------------------------------------------
    # Mutation (the O(t)-per-segment update of section 3.4)
    # ------------------------------------------------------------------
    def occupy_h(self, h_idx: int, v_lo: int, v_hi: int, net_id: int) -> None:
        """Claim the horizontal slots of a span for ``net_id``.

        A net with a declared footprint claims every expanded row
        (metal span plus guards) — each row gets its own journal and
        ledger entry, so rollback and rip-up replay work unchanged.
        """
        if v_lo > v_hi:
            v_lo, v_hi = v_hi, v_lo
        self._check_indices(v_lo, h_idx)
        self._check_indices(v_hi, h_idx)
        rows = self._expand_rows(h_idx, self.footprint_of(net_id), self.num_htracks)
        priors = []
        for r in rows:
            row = np.asarray(self._h_owner[r, v_lo : v_hi + 1])
            foreign = (row != FREE) & (row != net_id)
            if foreign.any():
                raise ValueError(
                    f"h-track {r} span [{v_lo},{v_hi}] not free for net {net_id}"
                )
            priors.append(row)
        for r, row in zip(rows, priors):
            if self._txns:
                self._journal.append(("h", net_id, r, v_lo, row.copy()))
            self._h_owner[r, v_lo : v_hi + 1] = net_id
            self._ledger_push(net_id, (_LEDGER_H, r, v_lo, v_hi))

    def occupy_v(self, v_idx: int, h_lo: int, h_hi: int, net_id: int) -> None:
        """Claim the vertical slots of a span for ``net_id``."""
        if h_lo > h_hi:
            h_lo, h_hi = h_hi, h_lo
        self._check_indices(v_idx, h_lo)
        self._check_indices(v_idx, h_hi)
        rows = self._expand_rows(v_idx, self.footprint_of(net_id), self.num_vtracks)
        priors = []
        for r in rows:
            row = np.asarray(self._v_owner[r, h_lo : h_hi + 1])
            foreign = (row != FREE) & (row != net_id)
            if foreign.any():
                raise ValueError(
                    f"v-track {r} span [{h_lo},{h_hi}] not free for net {net_id}"
                )
            priors.append(row)
        for r, row in zip(rows, priors):
            if self._txns:
                self._journal.append(("v", net_id, r, h_lo, row.copy()))
            self._v_owner[r, h_lo : h_hi + 1] = net_id
            self._ledger_push(net_id, (_LEDGER_V, r, h_lo, h_hi))

    def occupy_corner(self, v_idx: int, h_idx: int, net_id: int) -> None:
        """Claim both slots at an intersection (an m3-m4 via).

        A footprinted net's corner via pad covers the whole expanded
        block (span plus guard ring on both axes); every cell is
        claimed with its own journal/ledger entry.
        """
        if not self.corner_free(v_idx, h_idx, net_id):
            raise ValueError(f"corner ({v_idx},{h_idx}) not free for net {net_id}")
        fp = self.footprint_of(net_id)
        cells = [
            (v, h)
            for v in self._expand_rows(v_idx, fp, self.num_vtracks)
            for h in self._expand_rows(h_idx, fp, self.num_htracks)
        ]
        for v, h in cells:
            if self._txns:
                self._journal.append(
                    (
                        "c",
                        net_id,
                        v,
                        h,
                        int(self._h_owner[h, v]),
                        int(self._v_owner[v, h]),
                        False,
                    )
                )
            self._h_owner[h, v] = net_id
            self._v_owner[v, h] = net_id
            self._ledger_push(net_id, (_LEDGER_C, v, h))

    def commit_path(
        self,
        net_id: int,
        points: Sequence,
        corners: Iterable[tuple[int, int]],
    ) -> int:
        """Claim a path (waypoint sequence plus corner vias) for ``net_id``.

        The shared commit primitive behind every connection engine, so
        all of them mutate the occupancy array identically.  Waypoint
        coordinates must lie on tracks; consecutive points must be
        axis-aligned.  Returns the number of slots claimed.
        """
        cells = 0
        for a, b in zip(points, points[1:]):
            if a == b:
                continue
            if a.y == b.y:
                h_idx = self.htracks.index_of(a.y)
                idxs = self.vtracks.index_range(min(a.x, b.x), max(a.x, b.x))
                self.occupy_h(h_idx, idxs.start, idxs.stop - 1, net_id)
            else:
                v_idx = self.vtracks.index_of(a.x)
                idxs = self.htracks.index_range(min(a.y, b.y), max(a.y, b.y))
                self.occupy_v(v_idx, idxs.start, idxs.stop - 1, net_id)
            cells += idxs.stop - idxs.start
        for v_idx, h_idx in corners:
            self.occupy_corner(v_idx, h_idx, net_id)
            cells += 1
        instrument.count(OCC_CELLS_TOUCHED, cells)
        return cells

    def rip_net(self, net_id: int) -> int:
        """Remove every slot owned by ``net_id`` (rip-up).

        Replays the net's mutation ledger, so the cost is
        ``O(cells the net touches)`` - the occupancy arrays are never
        scanned.  Returns the number of slots freed.  The caller is
        responsible for re-reserving the net's terminals afterwards.
        Inside a transaction the rip is journaled and fully undone by
        ``rollback()`` (wiring *and* ledger restored).
        """
        if net_id < 1:
            raise ValueError("net ids must be >= 1")
        ledger = self._net_ledger.pop(net_id, None)
        if not ledger:
            return 0
        freed = 0
        H, V = self._h_owner, self._v_owner
        for entry in ledger:
            tag = entry[0]
            if tag == _LEDGER_H:
                _, h_idx, v_lo, v_hi = entry
                row = np.array(H[h_idx, v_lo : v_hi + 1])
                mask = row == net_id  # overlap-safe: count each slot once
                hits = int(mask.sum())
                if hits:
                    freed += hits
                    row[mask] = FREE
                    H[h_idx, v_lo : v_hi + 1] = row
            elif tag == _LEDGER_V:
                _, v_idx, h_lo, h_hi = entry
                row = np.array(V[v_idx, h_lo : h_hi + 1])
                mask = row == net_id
                hits = int(mask.sum())
                if hits:
                    freed += hits
                    row[mask] = FREE
                    V[v_idx, h_lo : h_hi + 1] = row
            else:
                _, v_idx, h_idx = entry
                if H[h_idx, v_idx] == net_id:
                    H[h_idx, v_idx] = FREE
                    freed += 1
                if V[v_idx, h_idx] == net_id:
                    V[v_idx, h_idx] = FREE
                    freed += 1
        if self._txns:
            self._journal.append(("rip", net_id, ledger))
        return freed

    def clear_net(self, net_id: int) -> int:
        """Backwards-compatible alias for :meth:`rip_net`."""
        return self.rip_net(net_id)

    def ledgered_net_ids(self) -> list[int]:
        """Net ids with a non-empty mutation ledger, sorted."""
        return sorted(i for i, entries in self._net_ledger.items() if entries)

    def ledger_entries(self, net_id: int) -> tuple[tuple, ...]:
        """A read-only copy of a net's mutation ledger.

        Entries are ``("h", h_idx, v_lo, v_hi)`` for horizontal spans,
        ``("v", v_idx, h_lo, h_hi)`` for vertical spans and
        ``("c", v_idx, h_idx)`` for both-slot claims (corner vias and
        terminal stacks), in commit order.  The ``grid.ledger`` audit in
        :mod:`repro.check` replays these against the occupancy arrays.
        """
        return tuple(self._net_ledger.get(net_id, ()))

    def net_cells_recorded(self, net_id: int) -> int:
        """Slots recorded in a net's ledger (overlaps counted twice).

        An upper bound on what :meth:`rip_net` will free; exposed for
        tests and benchmarks asserting the O(cells) rip-up contract.
        """
        cells = 0
        for entry in self._net_ledger.get(net_id, ()):
            tag = entry[0]
            if tag == _LEDGER_C:
                cells += 2
            else:
                cells += entry[3] - entry[2] + 1
        return cells

    def owners_near(self, v_idx: int, h_idx: int, radius: int) -> list[int]:
        """Net ids wired within ``radius`` tracks of an intersection."""
        hw, vw = self._window(v_idx, h_idx, radius)
        h = self._h_owner[hw, vw]
        v = self._v_owner[vw, hw]
        ids = set(np.unique(h)) | set(np.unique(v))
        return sorted(int(i) for i in ids if i > 0)

    # ------------------------------------------------------------------
    # Cost-model statistics (drg / dup / acf inputs)
    # ------------------------------------------------------------------
    def routed_density_near(self, v_idx: int, h_idx: int, radius: int) -> float:
        """Fraction of slots near an intersection used by routed nets.

        Input to the ``drg`` term: corners close to existing wiring are
        penalised.
        """
        hw, vw = self._window(v_idx, h_idx, radius)
        h = self._h_owner[hw, vw]
        v = self._v_owner[vw, hw].T
        used = (h > 0).sum() + (v > 0).sum()
        return float(used) / float(2 * h.size)

    def unrouted_terminals_near(self, v_idx: int, h_idx: int, radius: int) -> int:
        """Count of unrouted terminals near an intersection (``dup``)."""
        hw, vw = self._window(v_idx, h_idx, radius)
        return int(self._unrouted_terms[hw, vw].sum())

    def congestion_near(self, v_idx: int, h_idx: int, radius: int) -> float:
        """Fraction of *unusable* slots (routed or obstacle) nearby.

        Input to the area congestion factor ``acf``.
        """
        hw, vw = self._window(v_idx, h_idx, radius)
        h = self._h_owner[hw, vw]
        v = self._v_owner[vw, hw].T
        busy = (h != FREE).sum() + (v != FREE).sum()
        return float(busy) / float(2 * h.size)

    def _window(self, v_idx: int, h_idx: int, radius: int) -> tuple[slice, slice]:
        h_lo = max(0, h_idx - radius)
        h_hi = min(self.num_htracks - 1, h_idx + radius)
        v_lo = max(0, v_idx - radius)
        v_hi = min(self.num_vtracks - 1, v_idx + radius)
        return slice(h_lo, h_hi + 1), slice(v_lo, v_hi + 1)

    # ------------------------------------------------------------------
    # Whole-grid statistics
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of all slots carrying routed wiring."""
        return self.backend.used_slots() / float(2 * self.num_intersections)

    def owners(self) -> list[int]:
        """Sorted list of net ids present anywhere on the grid."""
        return sorted(self.backend.owner_ids())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingGrid({self.num_vtracks}x{self.num_htracks} tracks, "
            f"{self.utilization():.1%} used)"
        )


def _block_and(mask: np.ndarray, block: int, axis: int) -> np.ndarray:
    """AND of ``block`` consecutive entries along ``axis``.

    Entry ``i`` of the result covers ``mask`` entries ``i .. i + block
    - 1``, so the result is ``block - 1`` shorter along ``axis``; a
    block of 1 returns ``mask`` itself.
    """
    n = mask.shape[axis] - block + 1
    window = [slice(None), slice(None)]
    window[axis] = slice(0, n)
    out = mask[tuple(window)]
    for d in range(1, block):
        window[axis] = slice(d, d + n)
        out = out & mask[tuple(window)]
    return out


def _run_around(usable: np.ndarray, pos: int, offset: int) -> Interval | None:
    """The run of usable cells containing position ``pos``, or ``None``.

    ``usable`` is one track's mask starting at global index ``offset``.
    """
    if not usable[pos]:
        return None
    lo, hi = UsableRuns(usable[np.newaxis]).around(np.zeros(1, dtype=np.intp), np.array([pos]))
    return Interval(int(lo[0]) + offset, int(hi[0]) + offset)


class UsableRuns:
    """The maximal runs of usable cells along each row of a boolean mask.

    ``usable[r, p]`` says whether a wire on row ``r`` may pass position
    ``p``.  The unusable cells, plus a sentinel at each end of every
    row, are kept as one sorted array of flat indices, so the run
    around any batch of usable cells is one ``searchsorted``.
    """

    __slots__ = ("usable", "_stride", "_blocked")

    def __init__(self, usable: np.ndarray) -> None:
        rows, positions = usable.shape
        framed = np.zeros((rows, positions + 2), dtype=bool)
        framed[:, 1:-1] = usable
        self.usable = usable
        self._stride = positions + 2
        self._blocked = np.flatnonzero(~framed)

    def around(
        self, rows: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` of the run holding each usable ``(row, position)``."""
        base = rows * self._stride
        k = np.searchsorted(self._blocked, base + positions + 1)
        return self._blocked[k - 1] - base, self._blocked[k] - base - 2
