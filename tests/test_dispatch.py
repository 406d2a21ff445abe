"""Unit tests for the parallel dispatch subsystem (repro.dispatch).

Covers the three tier-1 layers — wave planning, grid-window workers and
the deterministic merger — plus the tier-2 batch job runner and the
``repro dispatch`` CLI.  The end-to-end serial/parallel parity property
lives in test_dispatch_parity.py.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import make_toy_design
from repro import instrument
from repro.bench_suite import random_design
from repro.core import LevelBConfig
from repro.core.router import LevelBRouter
from repro.core.tig import GridTerminal
from repro.dispatch import (
    DispatchConfig,
    Job,
    JobOutcome,
    JobRunner,
    NetPlan,
    NetTask,
    WaveSpeculator,
    WorkerPool,
    halo_tracks,
    net_window,
    plan_wave,
    plan_waves,
    route_levelb,
    route_net_task,
    speculative_config,
    windows_overlap,
)
from repro.dispatch import jobs as jobs_mod
from repro.flow import FlowParams, overcell_flow
from repro.geometry import Interval, Point, Rect
from repro.grid import RoutingGrid, TrackSet


def make_grid(nv: int = 40, nh: int = 40, pitch: int = 8) -> RoutingGrid:
    return RoutingGrid(
        TrackSet(range(0, nv * pitch, pitch)),
        TrackSet(range(0, nh * pitch, pitch)),
    )


def make_router(seed: int = 7, nets: int = 6) -> LevelBRouter:
    design = make_toy_design(seed=seed, nets=nets)
    return LevelBRouter(Rect(0, 0, 256, 256), list(design.nets.values()))


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class TestPlanning:
    def test_halo_grows_with_expansions_and_terminals(self):
        cfg = LevelBConfig()
        base = halo_tracks(cfg, 0)
        assert halo_tracks(cfg, 1) > base
        assert halo_tracks(cfg, 0, num_terminals=4) > base
        # Exact shape: margin * growth**k * (terminals-1) + pad.
        pad = max(cfg.weights.radius, cfg.parallel_run_separation, 1)
        assert base == cfg.region_margin_tracks + pad
        assert (
            halo_tracks(cfg, 1, num_terminals=3)
            == cfg.region_margin_tracks * cfg.region_growth * 2 + pad
        )

    def test_net_window_clipped_to_grid(self):
        grid = make_grid()
        terms = [GridTerminal(1, 1), GridTerminal(3, 2)]
        plan = net_window(grid, 5, terms, LevelBConfig(), 0)
        assert plan.net_id == 5
        assert plan.v_iv.lo == 0 and plan.h_iv.lo == 0
        assert plan.v_iv.hi < grid.num_vtracks
        assert plan.cells == plan.v_iv.count * plan.h_iv.count

    def test_windows_overlap_requires_both_axes(self):
        a = NetPlan(1, Interval(0, 5), Interval(0, 5))
        b = NetPlan(2, Interval(6, 9), Interval(0, 5))  # disjoint in v
        c = NetPlan(3, Interval(3, 9), Interval(3, 9))  # overlaps a
        assert not windows_overlap(a, b)
        assert windows_overlap(a, c)

    def test_plan_wave_greedy_head_first(self):
        a = NetPlan(1, Interval(0, 5), Interval(0, 5))
        b = NetPlan(2, Interval(3, 9), Interval(3, 9))  # conflicts with a
        c = NetPlan(3, Interval(20, 25), Interval(0, 5))
        wave = plan_wave([a, b, c])
        assert [p.net_id for p in wave] == [1, 3]
        assert plan_wave([a, b, c], limit=1) == [a]
        # Every wave member pairwise disjoint.
        for i, p in enumerate(wave):
            for q in wave[i + 1 :]:
                assert not windows_overlap(p, q)

    def test_plan_waves_partitions_everything(self):
        plans = [
            NetPlan(i, Interval(4 * (i % 3), 4 * (i % 3) + 5), Interval(0, 5))
            for i in range(6)
        ]
        waves = plan_waves(plans)
        seen = [p.net_id for wave in waves for p in wave]
        assert sorted(seen) == list(range(6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DispatchConfig(mode="fiber")
        with pytest.raises(ValueError):
            DispatchConfig(speculate_expansions=-1)


# ----------------------------------------------------------------------
# Window snapshots
# ----------------------------------------------------------------------
class TestWindowSnapshot:
    def test_roundtrip_preserves_coords_and_state(self):
        grid = make_grid()
        grid.reserve_terminal(4, 4, 9)
        grid.reserve_terminal(8, 6, 9)
        grid.commit_path(
            9,
            [
                Point(*grid.coord_of(4, 4)),
                Point(*grid.coord_of(4, 6)),
                Point(*grid.coord_of(8, 6)),
            ],
            [(4, 6)],
        )
        snap = grid.window_snapshot(Interval(2, 12), Interval(2, 12))
        assert snap.global_vtracks == grid.num_vtracks
        assert snap.global_htracks == grid.num_htracks
        sub = snap.to_grid()
        # True coordinates carried verbatim.
        assert sub.coord_of(0, 0) == grid.coord_of(2, 2)
        # Occupancy identical over the window (indices shift by v_lo/h_lo).
        for v in range(2, 10):
            for h in range(2, 10):
                assert sub.v_slot(v - 2, h - 2) == grid.v_slot(v, h)
                assert sub.h_slot(v - 2, h - 2) == grid.h_slot(v, h)

    def test_window_matches_tracks_grid_changes(self):
        grid = make_grid()
        snap = grid.window_snapshot(Interval(0, 10), Interval(0, 10))
        assert grid.window_matches(snap)
        outside = grid.window_snapshot(Interval(0, 10), Interval(0, 10))
        grid.reserve_terminal(20, 20, 3)  # outside the window
        assert grid.window_matches(outside)
        txn = grid.begin()
        grid.reserve_terminal(5, 5, 3)  # inside
        assert not grid.window_matches(snap)
        txn.rollback()
        assert grid.window_matches(snap)


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
class TestWorkers:
    def test_speculative_config_restrictions(self):
        cfg = LevelBConfig()
        spec = speculative_config(cfg, 0)
        assert spec.max_region_expansions == 0
        assert not spec.maze_fallback
        assert spec.max_ripups == 0
        assert spec.refinement_passes == 0
        assert speculative_config(cfg, 99).max_region_expansions == (
            cfg.max_region_expansions
        )

    def _task_for(self, grid, net_id, terminals, window_v, window_h):
        snap = grid.window_snapshot(window_v, window_h)
        local = tuple(
            GridTerminal(t.v_idx - snap.v_lo, t.h_idx - snap.h_lo)
            for t in terminals
        )
        return NetTask(
            net_id=net_id,
            terminals=local,
            window=snap,
            config=speculative_config(LevelBConfig(), 0),
            sensitive_ids=frozenset(),
        )

    def test_route_net_task_returns_global_geometry(self):
        grid = make_grid()
        terms = (GridTerminal(10, 10), GridTerminal(14, 13))
        for t in terms:
            grid.reserve_terminal(t.v_idx, t.h_idx, 5)
        task = self._task_for(grid, 5, terms, Interval(0, 39), Interval(0, 39))
        result = route_net_task(task)
        assert result.complete and len(result.connections) == 1
        conn = result.connections[0]
        # Geometry and indices are global: endpoints are the terminals.
        assert {conn.source, conn.target} == set(terms)
        positions = {Point(*grid.coord_of(t.v_idx, t.h_idx)) for t in terms}
        assert {conn.points[0], conn.points[-1]} == positions
        for v_idx, h_idx in conn.corners:
            assert 0 <= v_idx < grid.num_vtracks
            assert 0 <= h_idx < grid.num_htracks

    def test_truncated_window_taints_result(self):
        # A mid-grid window so tight the first search region (+ cost
        # pad) would be clipped by the window where the real grid keeps
        # going: the worker must refuse rather than search the smaller
        # rectangle serial routing would not have used.
        grid = make_grid(60, 60)
        terms = (GridTerminal(28, 28), GridTerminal(32, 31))
        for t in terms:
            grid.reserve_terminal(t.v_idx, t.h_idx, 5)
        task = self._task_for(grid, 5, terms, Interval(26, 34), Interval(26, 34))
        result = route_net_task(task)
        assert not result.complete

    def test_window_at_grid_edge_is_not_truncation(self):
        # Same tight window, but flush with the grid: clipping at the
        # window edge IS clipping at the grid edge, so the speculation
        # stands.
        grid = make_grid(12, 12)
        terms = (GridTerminal(4, 4), GridTerminal(8, 7))
        for t in terms:
            grid.reserve_terminal(t.v_idx, t.h_idx, 5)
        task = self._task_for(grid, 5, terms, Interval(0, 11), Interval(0, 11))
        result = route_net_task(task)
        assert result.complete

    def test_worker_pool_modes(self):
        grid = make_grid()
        terms = (GridTerminal(5, 5), GridTerminal(9, 8))
        for t in terms:
            grid.reserve_terminal(t.v_idx, t.h_idx, 2)
        task = self._task_for(grid, 2, terms, Interval(0, 39), Interval(0, 39))
        for mode in ("serial", "thread", "process"):
            pool = WorkerPool(2, mode)
            try:
                fut = pool.submit(task)
                result = fut.result()
                assert result.complete and result.net_id == 2
            finally:
                pool.close()

    def test_dead_pool_reports_failure(self):
        pool = WorkerPool(1, "thread")
        pool.close()
        grid = make_grid()
        terms = (GridTerminal(5, 5), GridTerminal(9, 8))
        task = self._task_for(grid, 2, terms, Interval(0, 39), Interval(0, 39))
        pool._executor = None
        pool.mark_dead()
        assert not pool.alive


# ----------------------------------------------------------------------
# Merger / speculator
# ----------------------------------------------------------------------
class TestWaveSpeculator:
    def test_route_levelb_matches_serial(self):
        serial = make_router().route()
        router = make_router()
        with instrument.collecting() as col:
            result = route_levelb(
                router, DispatchConfig(workers=2, mode="serial")
            )
        assert result.completion_rate == serial.completion_rate
        assert [r.net.name for r in result.routed] == [
            r.net.name for r in serial.routed
        ]
        for a, b in zip(result.routed, serial.routed):
            assert [c.path.waypoints() for c in a.connections] == [
                c.path.waypoints() for c in b.connections
            ]
        counters = col.counters
        assert counters.get("dispatch.nets_speculated", 0) >= 1

    def test_workers_zero_is_plain_route(self):
        router = make_router()
        result = route_levelb(router, DispatchConfig(workers=0))
        assert result.completion_rate == make_router().route().completion_rate

    def test_consumed_net_declines(self):
        router = make_router()
        spec = WaveSpeculator(router, DispatchConfig(workers=1, mode="serial"))
        try:
            ordered = list(router.nets)
            spec.begin(ordered)
            net = ordered[0]
            first = spec.take(net)
            # Requeued (ripped-up) nets must go serial: speculation for
            # an already-consumed net is stale by definition.
            assert spec.take(net) is None
            assert first is None or first.net is net
        finally:
            spec.close()


# ----------------------------------------------------------------------
# Batch jobs (tier 2)
# ----------------------------------------------------------------------
class TestJobRunner:
    def test_serial_batch_runs_flow(self):
        runner = JobRunner(1, mode="serial")
        report = runner.run([Job(design="__missing__", flow="overcell")])
        assert not report.ok  # unknown design fails, is reported
        assert report.outcomes[0].error

    def test_retry_then_success(self, monkeypatch):
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return {"completion": 1.0}

        monkeypatch.setattr(jobs_mod, "_execute_job", flaky)
        report = JobRunner(2, mode="thread", retries=1).run([Job(design="x")])
        assert report.ok
        assert report.outcomes[0].attempts == 2

    def test_retries_exhausted(self, monkeypatch):
        def always_fails(job):
            raise RuntimeError("boom")

        monkeypatch.setattr(jobs_mod, "_execute_job", always_fails)
        report = JobRunner(2, mode="thread", retries=1).run([Job(design="x")])
        assert not report.ok
        assert report.outcomes[0].attempts == 2
        assert "boom" in report.outcomes[0].error

    def test_timeout_records_without_retry(self, monkeypatch):
        def slow(job):
            time.sleep(5)
            return {"completion": 1.0}

        monkeypatch.setattr(jobs_mod, "_execute_job", slow)
        report = JobRunner(2, mode="thread", timeout_s=0.05, retries=3).run(
            [Job(design="x")]
        )
        assert not report.ok
        assert report.outcomes[0].timed_out
        assert report.outcomes[0].attempts == 1

    def test_report_shapes(self, monkeypatch):
        monkeypatch.setattr(
            jobs_mod, "_execute_job", lambda job: {"completion": 1.0}
        )
        report = JobRunner(1, mode="serial").run(
            [Job(design="a"), Job(design="b", flow="two-layer")]
        )
        doc = report.to_dict()
        assert doc["format"] == "repro-dispatch-batch"
        assert doc["ok"] and len(doc["jobs"]) == 2
        text = report.render()
        assert "a/overcell" in text and "b/two-layer" in text

    def test_empty_job_list(self):
        # The serve queue can drain to empty between submissions; an
        # empty batch must be a clean no-op in every mode.
        for mode in ("serial", "thread", "process"):
            report = JobRunner(2, mode=mode).run([])
            assert report.ok
            assert report.completed == 0 and report.failed == 0
            assert report.outcomes == []
            doc = report.to_dict()
            assert doc["jobs"] == []
            assert jobs_mod.BatchReport.from_dict(doc).to_dict() == doc

    def test_timeout_then_retry_then_success(self):
        calls = {"n": 0}

        def slow_once(job):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(1.0)
            return {"completion": 1.0}

        runner = JobRunner(
            2,
            mode="thread",
            timeout_s=0.1,
            retries=2,
            retry_timeouts=True,
            job_body=slow_once,
        )
        report = runner.run([Job(design="x")])
        assert report.ok
        assert report.outcomes[0].attempts >= 2
        assert not report.outcomes[0].timed_out

    def test_timeout_retries_exhausted(self):
        def always_slow(job):
            time.sleep(1.0)
            return {"completion": 1.0}

        runner = JobRunner(
            2,
            mode="thread",
            timeout_s=0.05,
            retries=1,
            retry_timeouts=True,
            job_body=always_slow,
        )
        report = runner.run([Job(design="x")])
        assert not report.ok
        assert report.outcomes[0].timed_out
        assert report.outcomes[0].attempts == 2

    def test_worker_crash_recovers_on_fresh_executor(self, tmp_path):
        import os

        flag = tmp_path / "crashed-once"
        job = Job(design=f"{flag}:{os.getpid()}")
        runner = JobRunner(
            2, mode="process", retries=1, job_body=_crash_once_body
        )
        report = runner.run([job])
        if report.mode != "process":  # pragma: no cover - thread fallback
            pytest.skip("no process pool available on this platform")
        assert report.ok
        assert report.outcomes[0].attempts == 2

    def test_job_body_hook_in_serial_mode(self):
        seen = []

        def body(job):
            seen.append(job.name)
            return {"completion": 1.0, "extra": "payload"}

        report = JobRunner(1, mode="serial", job_body=body).run(
            [Job(design="d1"), Job(design="d2")]
        )
        assert report.ok and seen == ["d1/overcell", "d2/overcell"]
        assert report.outcomes[1].summary["extra"] == "payload"


class TestReportRoundTrip:
    """to_dict output survives sorted-key JSON and from_dict losslessly."""

    def _sample_report(self):
        ok = JobOutcome(
            job=Job(design="a", flow="overcell", check=True, parallel=2),
            ok=True,
            attempts=1,
            elapsed_s=0.1234567,
            summary={"completion": 1.0, "wire_length": 42, "check_clean": True},
        )
        failed = JobOutcome(
            job=Job(design="b", flow="two-layer"),
            ok=False,
            attempts=3,
            elapsed_s=2.5,
            error="RuntimeError: boom",
        )
        timed_out = JobOutcome(
            job=Job(design="c"),
            ok=False,
            attempts=1,
            elapsed_s=5.0,
            timed_out=True,
            error="timed out after 5.0s",
        )
        return jobs_mod.BatchReport(
            outcomes=[ok, failed, timed_out],
            wall_s=7.654321987,
            workers=2,
            mode="thread",
        )

    def test_outcome_json_round_trip(self):
        for outcome in self._sample_report().outcomes:
            doc = outcome.to_dict()
            assert json.loads(json.dumps(doc, sort_keys=True)) == doc
            rebuilt = JobOutcome.from_dict(doc)
            assert rebuilt.to_dict() == doc
            assert rebuilt.job == outcome.job

    def test_batch_json_round_trip(self):
        report = self._sample_report()
        doc = report.to_dict()
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
        rebuilt = jobs_mod.BatchReport.from_dict(doc)
        assert rebuilt.to_dict() == doc
        assert rebuilt.completed == report.completed
        assert rebuilt.failed == report.failed

    def test_dict_ordering_does_not_change_payload(self):
        from repro.io import canonical_digest

        doc = self._sample_report().to_dict()
        reordered = {k: doc[k] for k in reversed(list(doc))}
        assert canonical_digest(doc) == canonical_digest(reordered)

    def test_from_dict_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            jobs_mod.BatchReport.from_dict({"format": "nope", "jobs": []})


def _crash_once_body(job):
    """Process-pool body that hard-kills its worker exactly once.

    The flag file and submitter pid are smuggled through ``job.design``
    (``<path>:<pid>``); the flag survives the dead process, so the
    retry on the rebuilt executor succeeds.  If the runner fell back
    to threads we would be running *inside* the submitter — raise
    instead of taking the whole test process down.
    """
    import os
    from pathlib import Path

    path, _, parent_pid = job.design.rpartition(":")
    flag = Path(path)
    if not flag.exists():
        flag.write_text("x")
        if os.getpid() == int(parent_pid):  # pragma: no cover - fallback
            raise RuntimeError("thread fallback: cannot simulate crash")
        os._exit(13)
    return {"completion": 1.0}


# ----------------------------------------------------------------------
# Flow wiring and CLI
# ----------------------------------------------------------------------
class TestIntegration:
    def test_flow_params_parallel(self):
        design = random_design("par", seed=11, num_cells=6, num_nets=14)
        serial = overcell_flow(
            random_design("par", seed=11, num_cells=6, num_nets=14),
            FlowParams(),
        )
        par = overcell_flow(
            design, FlowParams(parallel=2, parallel_mode="serial")
        )
        assert par.wire_length == serial.wire_length
        assert par.completion == serial.completion

    def test_cli_dispatch(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "batch.json"
        code = main(
            [
                "dispatch",
                "--suites",
                "ami33",
                "--flows",
                "two-layer",
                "--serial",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-dispatch-batch"
        assert doc["jobs"][0]["design"] == "ami33"
        captured = capsys.readouterr().out
        assert "dispatch batch" in captured
