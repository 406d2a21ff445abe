"""Tier 2: the multi-design batch job runner.

Fans a corpus of (design, flow) jobs across a process pool — the whole
bench suite, a directory of exported designs, a parameter sweep — with
per-job timeout, retry-on-crash and structured ``dispatch.*`` counters.
Job payloads and results are small picklable dataclasses/dicts; the
heavy objects (designs, grids, flow results) live and die inside the
worker process.

The runner is deliberately independent of tier 1: a batch job may
itself enable speculative net-level parallelism via
``Job(parallel=...)`` → ``FlowParams(parallel=...)``, nesting the two
tiers, or run fully serial flows side by side.

Used by the ``repro dispatch`` CLI (``--jobs N``, ``--serial``,
``--json``) and the parallel-scaling benchmark.
"""

from __future__ import annotations

import time
from concurrent import futures
from dataclasses import dataclass, field
from collections.abc import Callable

from repro import instrument
from repro.instrument.names import (
    DISPATCH_JOBS_COMPLETED,
    DISPATCH_JOBS_FAILED,
    DISPATCH_JOBS_RETRIED,
    DISPATCH_JOBS_SUBMITTED,
    DISPATCH_JOBS_TIMED_OUT,
    EVT_JOB_FINISHED,
    SPAN_DISPATCH_BATCH,
    SPAN_DISPATCH_JOB,
)

__all__ = ["BatchReport", "Job", "JobOutcome", "JobRunner", "run_suite_batch"]


@dataclass(frozen=True)
class Job:
    """One unit of batch work: route one design with one flow.

    ``design`` is a built-in suite name (``repro.bench_suite.SUITES``)
    or a path to a design JSON written by ``repro.io.save_design``.
    ``parallel`` enables tier-1 speculative routing inside the job
    (level B worker count; 0 = serial).
    """

    design: str
    flow: str = "overcell"
    check: bool = False
    parallel: int = 0

    @property
    def name(self) -> str:
        return f"{self.design}/{self.flow}"


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: Job
    ok: bool
    attempts: int
    elapsed_s: float
    timed_out: bool = False
    error: str | None = None
    summary: dict | None = None

    def to_dict(self) -> dict:
        """JSON-safe snapshot; round-trips through :meth:`from_dict`.

        Every value is a JSON scalar/dict/list and ``elapsed_s`` is
        pre-rounded, so ``json.loads(json.dumps(d, sort_keys=True))``
        equals ``d`` exactly — the serve protocol relies on this when
        it relays outcomes to HTTP clients.
        """
        return {
            "design": self.job.design,
            "flow": self.job.flow,
            "check": self.job.check,
            "parallel": self.job.parallel,
            "ok": self.ok,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 6),
            "timed_out": self.timed_out,
            "error": self.error,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobOutcome":
        """Rebuild an outcome written by :meth:`to_dict`."""
        return cls(
            job=Job(
                design=data["design"],
                flow=data.get("flow", "overcell"),
                check=bool(data.get("check", False)),
                parallel=int(data.get("parallel", 0)),
            ),
            ok=bool(data["ok"]),
            attempts=int(data["attempts"]),
            elapsed_s=float(data["elapsed_s"]),
            timed_out=bool(data.get("timed_out", False)),
            error=data.get("error"),
            summary=data.get("summary"),
        )


@dataclass
class BatchReport:
    """Aggregate outcome of one batch run."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    mode: str = "serial"

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.completed

    def to_dict(self) -> dict:
        """JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "format": "repro-dispatch-batch",
            "ok": self.ok,
            "workers": self.workers,
            "mode": self.mode,
            "wall_s": round(self.wall_s, 6),
            "jobs": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        """Rebuild a report written by :meth:`to_dict`."""
        if data.get("format") != "repro-dispatch-batch":
            raise ValueError("not a repro dispatch batch document")
        return cls(
            outcomes=[JobOutcome.from_dict(j) for j in data["jobs"]],
            wall_s=float(data["wall_s"]),
            workers=int(data["workers"]),
            mode=data["mode"],
        )

    def render(self) -> str:
        lines = [
            f"dispatch batch: {self.completed}/{len(self.outcomes)} jobs ok, "
            f"{self.workers} worker(s) [{self.mode}], wall {self.wall_s:.2f}s"
        ]
        for o in self.outcomes:
            if o.ok and o.summary:
                status = (
                    f"ok  completion={o.summary.get('completion', 0.0):.1%} "
                    f"wl={o.summary.get('wire_length', 0):,}"
                )
                if "check_clean" in o.summary:
                    status += (
                        " check=CLEAN"
                        if o.summary["check_clean"]
                        else f" check={o.summary.get('check_violations', '?')} violation(s)"
                    )
            elif o.timed_out:
                status = "TIMED OUT"
            else:
                status = f"FAILED ({o.error or 'unknown error'})"
            lines.append(
                f"  {o.job.name:<24} {status}  "
                f"[{o.elapsed_s:.2f}s, {o.attempts} attempt(s)]"
            )
        return "\n".join(lines)


def _execute_job(job: Job) -> dict:
    """Worker-side job body: load, route, summarise (picklably).

    Imports run inside the function so the parent's submit path stays
    cheap and the worker process pays its own import cost exactly once
    (fork start methods inherit the parent's modules anyway).
    """
    start = time.perf_counter()
    from repro.flow import FLOWS, FlowParams, resolve_design, result_summary

    design = resolve_design(job.design, allow_path=True)
    result = FLOWS[job.flow](design, FlowParams(parallel=job.parallel))
    flow_elapsed_s = round(time.perf_counter() - start, 6)
    if job.check:
        from repro.check import check_flow

        result.check_report = check_flow(result)
    return dict(result_summary(result), flow_elapsed_s=flow_elapsed_s)


def _job_ok(job: Job, summary: dict) -> bool:
    if summary.get("completion", 0.0) < 1.0:
        return False
    if job.check and not summary.get("check_clean", False):
        return False
    return True


def _module_level(fn: Callable) -> bool:
    """Is ``fn`` picklable by reference (a plain module-level function)?

    Process pools serialise callables by ``module.qualname`` lookup;
    closures, lambdas and bound methods all fail that round trip.
    """
    import sys

    qualname = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", None)
    if not qualname or "." in qualname or module is None:
        return False
    owner = sys.modules.get(module)
    return owner is not None and getattr(owner, qualname, None) is fn


class JobRunner:
    """Work-queue executor for :class:`Job` batches.

    ``workers``/``mode`` select the pool (``"process"`` with automatic
    thread fallback, ``"thread"``, or ``"serial"`` for in-line
    execution).  ``timeout_s`` bounds each job's wall time (pool modes
    only).  A job that raises or dies with its worker process is
    retried up to ``retries`` times; a timed-out job is recorded and,
    with ``retry_timeouts=True``, also retried — its old worker may
    still be running, but the pool is rebuilt between rounds so the
    retry always lands on a fresh executor.  ``repro.serve`` turns
    timeout retries on so a transiently stuck routing job gets a
    second chance before the client sees a failure.

    ``job_body`` is the submission hook: the callable each job is
    handed to (default :func:`_execute_job`, which loads and routes
    the design named by the job).  Callers that need richer payloads —
    serve injects a closure that routes an *inline* design under a
    per-job collector — swap the body while keeping the runner's
    queueing, timeout, retry and accounting behaviour.  Bodies must be
    picklable for ``mode="process"``; closures require thread/serial.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        mode: str = "process",
        timeout_s: float | None = None,
        retries: int = 1,
        retry_timeouts: bool = False,
        job_body: Callable[[Job], dict] | None = None,
    ) -> None:
        if mode not in ("process", "thread", "serial"):
            raise ValueError(f"unknown job runner mode {mode!r}")
        if (
            mode == "process"
            and job_body is not None
            and not _module_level(job_body)
        ):
            raise ValueError(
                "mode='process' requires a module-level job_body: "
                f"{job_body!r} is a closure or bound method, which "
                "process pools cannot pickle by reference; use "
                "mode='thread' or 'serial'"
            )
        self.workers = max(1, workers)
        self.mode = mode
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.retry_timeouts = retry_timeouts
        self.job_body = job_body if job_body is not None else _execute_job

    # ------------------------------------------------------------------
    def run(self, jobs: list[Job]) -> BatchReport:
        start = time.perf_counter()
        with instrument.span(SPAN_DISPATCH_BATCH):
            instrument.active().declare(
                DISPATCH_JOBS_COMPLETED,
                DISPATCH_JOBS_FAILED,
                DISPATCH_JOBS_RETRIED,
                DISPATCH_JOBS_SUBMITTED,
                DISPATCH_JOBS_TIMED_OUT,
            )
            if self.mode == "serial" or self.workers == 1:
                outcomes = self._run_serial(jobs)
                mode = "serial"
            else:
                outcomes, mode = self._run_pool(jobs)
        report = BatchReport(
            outcomes=outcomes,
            wall_s=time.perf_counter() - start,
            workers=1 if mode == "serial" else self.workers,
            mode=mode,
        )
        instrument.count(DISPATCH_JOBS_COMPLETED, report.completed)
        instrument.count(DISPATCH_JOBS_FAILED, report.failed)
        return report

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: list[Job]) -> list[JobOutcome]:
        outcomes = []
        for job in jobs:
            instrument.count(DISPATCH_JOBS_SUBMITTED)
            outcomes.append(self._attempt_serial(job))
        return outcomes

    def _attempt_serial(self, job: Job) -> JobOutcome:
        attempts = 0
        start = time.perf_counter()
        while True:
            attempts += 1
            try:
                with instrument.span(SPAN_DISPATCH_JOB):
                    summary = self.job_body(job)
            except Exception as exc:
                if attempts <= self.retries:
                    instrument.count(DISPATCH_JOBS_RETRIED)
                    continue
                outcome = JobOutcome(
                    job=job,
                    ok=False,
                    attempts=attempts,
                    elapsed_s=time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
                break
            outcome = JobOutcome(
                job=job,
                ok=_job_ok(job, summary),
                attempts=attempts,
                elapsed_s=time.perf_counter() - start,
                summary=summary,
            )
            break
        instrument.event(EVT_JOB_FINISHED, job=job.name, ok=outcome.ok)
        return outcome

    # ------------------------------------------------------------------
    def _new_executor(self) -> tuple[futures.Executor, str]:
        if self.mode == "process":
            try:
                return (
                    futures.ProcessPoolExecutor(max_workers=self.workers),
                    "process",
                )
            except (OSError, ValueError, ImportError):
                pass
        return futures.ThreadPoolExecutor(max_workers=self.workers), "thread"

    def _run_pool(self, jobs: list[Job]) -> tuple[list[JobOutcome], str]:
        outcomes: dict[int, JobOutcome] = {}
        attempts = dict.fromkeys(range(len(jobs)), 0)
        started = {i: time.perf_counter() for i in range(len(jobs))}
        pending = list(range(len(jobs)))
        mode = self.mode
        while pending:
            executor, mode = self._new_executor()
            submitted = {
                # repro: allow[pool.payload] __init__ rejects non-module-level bodies for mode='process' (_module_level guard); closures only ever reach thread/serial executors
                i: executor.submit(self.job_body, jobs[i]) for i in pending
            }
            instrument.count(DISPATCH_JOBS_SUBMITTED, len(pending))
            requeue: list[int] = []
            for i, fut in submitted.items():
                job = jobs[i]
                attempts[i] += 1
                try:
                    summary = fut.result(timeout=self.timeout_s)
                except futures.TimeoutError:
                    fut.cancel()
                    instrument.count(DISPATCH_JOBS_TIMED_OUT)
                    if self.retry_timeouts and attempts[i] <= self.retries:
                        instrument.count(DISPATCH_JOBS_RETRIED)
                        requeue.append(i)
                    else:
                        outcomes[i] = JobOutcome(
                            job=job,
                            ok=False,
                            attempts=attempts[i],
                            elapsed_s=time.perf_counter() - started[i],
                            timed_out=True,
                            error=f"timed out after {self.timeout_s}s",
                        )
                except Exception as exc:
                    # Worker crash (BrokenExecutor) or job exception:
                    # retry on a fresh pool until attempts run out.
                    if attempts[i] <= self.retries:
                        instrument.count(DISPATCH_JOBS_RETRIED)
                        requeue.append(i)
                    else:
                        outcomes[i] = JobOutcome(
                            job=job,
                            ok=False,
                            attempts=attempts[i],
                            elapsed_s=time.perf_counter() - started[i],
                            error=f"{type(exc).__name__}: {exc}",
                        )
                else:
                    outcomes[i] = JobOutcome(
                        job=job,
                        ok=_job_ok(job, summary),
                        attempts=attempts[i],
                        elapsed_s=time.perf_counter() - started[i],
                        summary=summary,
                    )
                if i in outcomes:
                    instrument.event(
                        EVT_JOB_FINISHED, job=job.name, ok=outcomes[i].ok
                    )
            executor.shutdown(wait=False, cancel_futures=True)
            pending = requeue
        return [outcomes[i] for i in range(len(jobs))], mode


def run_suite_batch(
    suites: list[str],
    flows: list[str],
    *,
    workers: int = 2,
    mode: str = "process",
    timeout_s: float | None = None,
    retries: int = 1,
    check: bool = False,
    parallel: int = 0,
) -> BatchReport:
    """Route every ``suite x flow`` combination as one batch."""
    jobs = [
        Job(design=suite, flow=flow, check=check, parallel=parallel)
        for suite in suites
        for flow in flows
    ]
    runner = JobRunner(workers, mode=mode, timeout_s=timeout_s, retries=retries)
    return runner.run(jobs)
