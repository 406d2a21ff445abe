"""Tests for repro.serve — server, queue, cache, protocol, streaming."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import make_toy_design
from repro.io import canonical_digest, design_to_dict
from repro.serve import (
    EventBuffer,
    JobQueue,
    JobSpec,
    QueueClosed,
    ResultCache,
    RoutingServer,
    ServeClient,
    ServeError,
    SpecError,
    probe_canonical,
)


def toy_spec(seed: int = 7, **overrides) -> dict:
    """An inline-design job spec that routes in milliseconds."""
    doc = design_to_dict(make_toy_design(seed=seed))
    spec = {"design": doc, "flow": "overcell"}
    spec.update(overrides)
    return spec


# ----------------------------------------------------------------------
# Protocol: validation and digests
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_suite_name_accepted(self):
        spec = JobSpec.from_dict({"design": "ex3"})
        assert spec.design == "ex3"
        assert spec.flow == "overcell"

    def test_unknown_suite_rejected(self):
        with pytest.raises(SpecError, match="unknown suite"):
            JobSpec.from_dict({"design": "nonexistent"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown job spec keys"):
            JobSpec.from_dict({"design": "ex3", "bogus": 1})

    def test_missing_design_rejected(self):
        with pytest.raises(SpecError, match="requires a 'design'"):
            JobSpec.from_dict({"flow": "overcell"})

    def test_bad_flow_rejected(self):
        with pytest.raises(SpecError, match="unknown flow"):
            JobSpec.from_dict({"design": "ex3", "flow": "quantum"})

    def test_inline_design_needs_format_marker(self):
        with pytest.raises(SpecError, match="repro-design"):
            JobSpec.from_dict({"design": {"name": "x"}})

    @pytest.mark.parametrize(
        "knob, value",
        [("planes", True), ("parallel", True), ("max_iterations", False)],
    )
    def test_bool_is_not_an_integer_knob(self, knob, value):
        # JSON true == 1 in Python; accepting it would key a second
        # cache entry for the same job.
        with pytest.raises(SpecError, match=knob):
            JobSpec.from_dict({"design": "ami33", knob: value})

    def test_inline_design_dangling_pin_rejected_at_submit(self):
        spec = toy_spec()
        spec["design"]["nets"][0]["pins"].append("nosuchcell.p000")
        with pytest.raises(SpecError, match="nosuchcell.p000"):
            JobSpec.from_dict(spec)

    def test_inline_design_bad_geometry_rejected_at_submit(self):
        spec = toy_spec()
        spec["design"]["cells"][0]["height"] = "tall"
        with pytest.raises(SpecError, match="height"):
            JobSpec.from_dict(spec)

    def test_inline_design_without_cells_rejected_at_submit(self):
        spec = toy_spec()
        spec["design"]["cells"] = []
        with pytest.raises(SpecError, match="unknown pin"):
            JobSpec.from_dict(spec)

    def test_bad_planes_rejected(self):
        with pytest.raises(SpecError, match="planes"):
            JobSpec.from_dict({"design": "ex3", "planes": 0})

    def test_digest_ignores_parallel(self):
        a = JobSpec.from_dict({"design": "ex3", "parallel": 0})
        b = JobSpec.from_dict({"design": "ex3", "parallel": 4})
        assert a.digest() == b.digest()

    def test_digest_ignores_backend_and_hierarchical(self):
        # Like parallel, these are bit-identical-result knobs: they
        # must share one cache entry (docs/SCALING.md).
        base = JobSpec.from_dict({"design": "ex3"})
        assert base.digest() == JobSpec.from_dict(
            {"design": "ex3", "backend": "sparse"}
        ).digest()
        assert base.digest() == JobSpec.from_dict(
            {"design": "ex3", "hierarchical": True}
        ).digest()
        assert base.digest() == JobSpec.from_dict(
            {"design": "ex3", "backend": "sparse", "hierarchical": True,
             "parallel": 2}
        ).digest()

    def test_bad_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            JobSpec.from_dict({"design": "ex3", "backend": "ramdisk"})

    def test_bad_hierarchical_rejected(self):
        with pytest.raises(SpecError, match="hierarchical"):
            JobSpec.from_dict({"design": "ex3", "hierarchical": 1})

    def test_digest_sees_planes_and_check(self):
        base = JobSpec.from_dict({"design": "ex3"})
        assert base.digest() != JobSpec.from_dict(
            {"design": "ex3", "planes": 2}
        ).digest()
        assert base.digest() != JobSpec.from_dict(
            {"design": "ex3", "check": True}
        ).digest()

    def test_probe_digest_is_separate_namespace(self):
        spec = JobSpec.from_dict({"design": "ex3"})
        assert canonical_digest(probe_canonical(spec)) != spec.digest()

    def test_inline_digest_stable_under_key_order(self):
        doc = toy_spec()["design"]
        reordered = {k: doc[k] for k in reversed(list(doc))}
        a = JobSpec.from_dict({"design": doc})
        b = JobSpec.from_dict({"design": reordered})
        assert a.digest() == b.digest()


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # freshen a; b becomes LRU
        cache.put("c", {"v": 3})
        assert cache.peek("a")
        assert not cache.peek("b")
        assert cache.stats()["evictions"] == 1

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache(2)
        cache.put("a", {})
        cache.peek("a")
        cache.peek("zzz")
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0


# ----------------------------------------------------------------------
# Event buffer
# ----------------------------------------------------------------------
class TestEventBuffer:
    def test_paged_reads(self):
        buf = EventBuffer()
        buf.append({"n": 1})
        buf.append({"n": 2})
        events, nxt, closed = buf.read(0)
        assert [e["n"] for e in events] == [1, 2]
        assert nxt == 2
        assert not closed
        events, nxt, _ = buf.read(nxt)
        assert events == []

    def test_blocking_read_wakes_on_append(self):
        buf = EventBuffer()
        result = {}

        def reader():
            result["got"] = buf.read(0, wait_s=5.0)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        buf.append({"n": 1})
        t.join(timeout=5.0)
        events, nxt, _ = result["got"]
        assert [e["n"] for e in events] == [1]

    def test_blocking_read_wakes_on_close(self):
        buf = EventBuffer()
        threading.Timer(0.05, buf.close).start()
        events, _, closed = buf.read(0, wait_s=5.0)
        assert events == []
        assert closed

    def test_overflow_drops_newest_and_counts(self):
        buf = EventBuffer(max_events=2)
        buf.extend([{"n": 1}, {"n": 2}, {"n": 3}])
        assert len(buf) == 2
        assert buf.dropped == 1

    def test_append_after_close_is_noop(self):
        buf = EventBuffer()
        buf.close()
        buf.append({"n": 1})
        assert len(buf) == 0


# ----------------------------------------------------------------------
# Job queue (no HTTP)
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_submit_execute_and_cache(self):
        q = JobQueue(workers=1, queue_size=8)
        q.start()
        try:
            spec = JobSpec.from_dict(toy_spec())
            record = q.submit(spec)
            assert record.wait(timeout_s=30.0)
            assert record.state == "done"
            assert record.ok is True
            assert record.payload is not None
            assert record.payload["completion"] == 1.0
            # identical resubmission answers from cache instantly
            dup = q.submit(spec)
            assert dup.cache_hit
            assert dup.terminal
            assert dup.payload == record.payload
            assert q.counters["cache_hits"] == 1
        finally:
            q.close()

    def test_worker_events_reach_buffer(self):
        q = JobQueue(workers=1)
        q.start()
        try:
            record = q.submit(JobSpec.from_dict(toy_spec()))
            record.wait(timeout_s=30.0)
            events = record.events.snapshot()
            names = {e.get("event") for e in events}
            # queue lifecycle plus live routing progress from the flow
            assert "serve.job_state" in names
            assert "net.routed" in names
        finally:
            q.close()

    def test_coalesced_duplicates_share_one_run(self):
        q = JobQueue(workers=1, queue_size=8)
        try:
            # workers not started: submissions pile up, so duplicates
            # provably coalesce instead of racing the cache
            spec = JobSpec.from_dict(toy_spec())
            primary = q.submit(spec)
            follower = q.submit(spec)
            assert follower.coalesced
            q.start()
            assert primary.wait(timeout_s=30.0)
            assert follower.wait(timeout_s=30.0)
            assert follower.payload == primary.payload
            assert follower.cache_hit
            assert q.counters["coalesced"] == 1
            assert q.counters["submitted"] == 2
        finally:
            q.close()

    def test_failed_job_records_error(self, monkeypatch):
        import repro.serve.jobqueue as jobqueue_mod

        def fault(spec):
            raise RuntimeError("injected worker fault")

        # Submit-time validation refuses broken designs, so the failure
        # is raised inside the worker instead.
        monkeypatch.setattr(jobqueue_mod, "execute_spec", fault)
        q = JobQueue(workers=1, retries=0)
        q.start()
        try:
            record = q.submit(JobSpec.from_dict(toy_spec()))
            assert record.wait(timeout_s=30.0)
            assert record.state == "failed"
            assert record.ok is False
            assert record.error
            assert q.counters["failed"] == 1
        finally:
            q.close()

    def test_closed_queue_refuses_submissions(self):
        q = JobQueue(workers=1)
        q.start()
        q.close()
        with pytest.raises(QueueClosed):
            q.submit(JobSpec.from_dict(toy_spec()))

    def test_close_without_drain_fails_queued_jobs(self):
        q = JobQueue(workers=1, queue_size=8)  # never started
        record = q.submit(JobSpec.from_dict(toy_spec()))
        q.close(drain=False)
        assert record.state == "failed"
        assert "shutdown" in (record.error or "")


# ----------------------------------------------------------------------
# HTTP server end-to-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    srv = RoutingServer(port=0, workers=2, cache_size=128, queue_size=256)
    srv.start()
    yield srv
    srv.stop(drain=False)


@pytest.fixture()
def client(server):
    return ServeClient(server.host, server.port, timeout_s=60.0)


class TestServerEndpoints:
    def test_healthz(self, client):
        doc = client.health()
        assert doc["ok"] is True
        assert doc["state"] == "serving"

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("j999999")
        assert exc.value.status == 404

    def test_invalid_spec_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"design": "nonexistent"})
        assert exc.value.status == 400

    def test_bool_planes_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"design": "ami33", "planes": True})
        assert exc.value.status == 400
        assert "planes" in str(exc.value)

    def test_design_without_cells_400(self, client):
        spec = toy_spec()
        spec["design"]["cells"] = []
        with pytest.raises(ServeError) as exc:
            client.submit(spec)
        assert exc.value.status == 400

    def test_non_finite_stackup_400(self, client):
        stackup = json.loads(
            (Path(__file__).parent / "golden" / "stackup_wide.json").read_text()
        )
        stackup["metals"][0]["pitch"] = float("inf")  # JSON 1e400
        with pytest.raises(ServeError) as exc:
            client.submit(toy_spec(technology=stackup))
        assert exc.value.status == 400

    def test_non_object_metal_400(self, client):
        stackup = json.loads(
            (Path(__file__).parent / "golden" / "stackup_wide.json").read_text()
        )
        stackup["metals"][1] = "x"
        with pytest.raises(ServeError) as exc:
            client.submit(toy_spec(technology=stackup))
        assert exc.value.status == 400
        assert "metals[1]" in str(exc.value)

    def test_submit_wait_result(self, client):
        record = client.submit(toy_spec(seed=100))
        assert record["_status"] == 202
        assert record["state"] == "queued"
        final = client.wait(record["id"], timeout_s=60.0)
        assert final["state"] == "done"
        assert final["ok"] is True
        result = client.result(record["id"])
        payload = result["payload"]
        assert payload["completion"] == 1.0
        assert payload["digest"] == record["digest"]
        assert payload["result"]["format"] == "repro-flow-result"

    def test_result_conflict_before_done(self, client):
        # ami33 routes in ~1s, so the result endpoint answers 409
        # while the job is still queued or running
        record = client.submit({"design": "ami33"})
        if record["state"] not in ("done", "failed"):
            with pytest.raises(ServeError) as exc:
                client.result(record["id"])
            assert exc.value.status == 409
        client.wait(record["id"], timeout_s=120.0)
        assert client.result(record["id"])["payload"]["completion"] == 1.0

    def test_duplicate_submission_is_cache_hit(self, client):
        spec = toy_spec(seed=200)
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=60.0)
        second = client.submit(spec)
        assert second["_status"] == 200
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        assert client.result(second["id"])["payload"] == (
            client.result(first["id"])["payload"]
        )

    def test_parallel_variant_shares_cache_entry(self, client):
        spec = toy_spec(seed=201)
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=60.0)
        variant = client.submit(dict(spec, parallel=2))
        assert variant["cache_hit"] is True

    def test_backend_variant_shares_cache_entry(self, client):
        # A dense-routed answer serves sparse/hierarchical requests:
        # the backends are bit-identical, so the cache key ignores
        # them (docs/SCALING.md).
        spec = toy_spec(seed=208)
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=60.0)
        sparse = client.submit(dict(spec, backend="sparse"))
        assert sparse["cache_hit"] is True
        hier = client.submit(
            dict(spec, backend="sparse", hierarchical=True)
        )
        assert hier["cache_hit"] is True

    def test_events_pagination(self, client):
        record = client.submit(toy_spec(seed=202))
        client.wait(record["id"], timeout_s=60.0)
        page = client.events(record["id"], since=0)
        assert page["events"]
        assert page["next"] == len(page["events"])
        rest = client.events(record["id"], since=page["next"])
        assert rest["events"] == []
        assert rest["done"] is True

    def test_stream_yields_progress_then_end(self, client):
        record = client.submit(toy_spec(seed=203))
        events = list(client.stream(record["id"]))
        names = [e.get("event") for e in events]
        assert names[-1] == "serve.stream_end"
        assert "serve.job_state" in names
        assert "net.routed" in names
        assert events[-1]["state"] == "done"

    def test_long_poll_returns_terminal_state(self, client):
        record = client.submit(toy_spec(seed=204))
        final = client.status(record["id"], wait_s=30.0)
        assert final["state"] in ("done", "failed")

    def test_checked_job_reports_clean(self, client):
        record = client.submit(toy_spec(seed=205, check=True))
        final = client.wait(record["id"], timeout_s=60.0)
        assert final["ok"] is True
        payload = client.result(record["id"])["payload"]
        assert payload["check_clean"] is True
        assert payload["check_violations"] == 0

    def test_probe_endpoint_and_cache(self, client):
        spec = {"design": toy_spec(seed=206)["design"]}
        first = client.probe(spec)
        assert first["routable"] is True
        assert first["cache_hit"] is False
        second = client.probe(spec)
        assert second["cache_hit"] is True

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["format"] == "repro-serve-stats"
        assert "queue" in stats and "cache" in stats
        assert stats["queue"]["counters"]["submitted"] >= 1

    def test_jobs_listing(self, client):
        client.submit(toy_spec(seed=207))
        listing = client.jobs()
        assert listing
        assert all("payload" not in r for r in listing)


class TestServerShutdown:
    def test_drain_shutdown_finishes_queued_work(self):
        srv = RoutingServer(port=0, workers=1, queue_size=64).start()
        client = ServeClient(srv.host, srv.port, timeout_s=60.0)
        ids = [client.submit(toy_spec(seed=400 + i))["id"] for i in range(3)]
        client.shutdown(drain=True)
        assert srv.wait_stopped(timeout_s=60.0)
        for job_id in ids:
            record = srv.jobs.get(job_id)
            assert record is not None
            assert record.state == "done"

    def test_submissions_refused_while_draining(self):
        srv = RoutingServer(port=0, workers=1).start()
        srv.jobs.close(drain=True)
        client = ServeClient(srv.host, srv.port, timeout_s=30.0)
        with pytest.raises(ServeError) as exc:
            client.submit(toy_spec(seed=500))
        assert exc.value.status == 503
        srv.stop(drain=False)


# ----------------------------------------------------------------------
# The load-bearing e2e: many concurrent clients, duplicates and
# distinct jobs, all streamed, duplicates cache-answered, and a served
# result that survives `repro check --strict`.
# ----------------------------------------------------------------------
class TestConcurrentClients:
    N_CLIENTS = 50
    N_DISTINCT = 10

    def test_fifty_concurrent_clients(self, tmp_path: Path):
        srv = RoutingServer(
            port=0, workers=2, cache_size=64, queue_size=256
        ).start()
        results: list[dict] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def one_client(i: int) -> None:
            try:
                # 10 distinct designs, each submitted 5 times
                spec = toy_spec(seed=1000 + (i % self.N_DISTINCT))
                client = ServeClient(srv.host, srv.port, timeout_s=120.0)
                record = client.submit(spec)
                streamed = list(client.stream(record["id"]))
                final = client.wait(record["id"], timeout_s=120.0)
                payload = client.result(record["id"])["payload"]
                with lock:
                    results.append(
                        {
                            "i": i,
                            "id": record["id"],
                            "state": final["state"],
                            "ok": final["ok"],
                            "cache_hit": final["cache_hit"],
                            "coalesced": final["coalesced"],
                            "completion": payload["completion"],
                            "digest": payload["digest"],
                            "streamed": len(streamed),
                        }
                    )
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)

        try:
            assert not errors, f"client failures: {errors[:3]}"
            assert len(results) == self.N_CLIENTS
            # every job completed correctly
            assert all(r["state"] == "done" for r in results)
            assert all(r["ok"] for r in results)
            assert all(r["completion"] == 1.0 for r in results)
            # every client saw streamed progress (at least the
            # lifecycle transitions and the stream terminator)
            assert all(r["streamed"] >= 2 for r in results)
            # identical specs converged on identical digests/payloads
            digests = {r["digest"] for r in results}
            assert len(digests) == self.N_DISTINCT
            # duplicates were answered from cache or coalesced onto an
            # in-flight run -- either way the router ran once per digest
            stats = srv.jobs.stats()["counters"]
            hits = stats["cache_hits"]
            assert hits > 0, f"expected cache hits, got {stats}"
            assert (
                stats["cache_misses"] + stats["coalesced"] + hits
                >= self.N_CLIENTS
            )
            assert stats["cache_misses"] == self.N_DISTINCT
            # a served design passes the independent verifier
            served = next(r for r in results if not r["cache_hit"])
            record = srv.jobs.get(served["id"])
            assert record is not None and record.spec is not None
            design_path = tmp_path / "served_design.json"
            design_path.write_text(json.dumps(record.spec.design))
            check = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "check",
                    "--design",
                    str(design_path),
                    "--strict",
                ],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": str(
                        Path(__file__).resolve().parents[1] / "src"
                    ),
                    "PATH": "/usr/bin:/bin",
                },
                timeout=120,
            )
            assert check.returncode == 0, check.stdout + check.stderr
            assert "CLEAN" in check.stdout.upper() or not check.returncode
        finally:
            srv.stop(drain=False)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--workers",
                "3",
                "--cache-size",
                "16",
                "--queue-size",
                "8",
            ]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.cache_size == 16
        assert args.func.__name__ == "_cmd_serve"
