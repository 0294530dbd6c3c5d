"""Parallel campaign execution over a determinism-preserving worker pool.

A sweep is a grid of independent (platform, instance) cells; the paper
ran them on a 112-core host, and there is no reason the reproduction
should pay for them serially.  :class:`ParallelRunner` runs cell tasks
through one attempt loop over a submit backend — *inline* (``jobs=1``:
each call deferred until its cell is collected, in this process) or
*pool* (a :class:`concurrent.futures.ProcessPoolExecutor`) — with
results **bit-for-bit identical** either way: every repetition's
randomness is a picklable :class:`~repro.rng.StreamSpec` derived from
the experiment's root seed and carried by the task, and results are
reassembled in submission (serial) order.

The loop owns retries (``retries`` extra attempts, never for
:class:`~repro.errors.ConfigurationError` or
:class:`~repro.errors.InjectedCrash`), the per-attempt failure history of
a :class:`~repro.errors.ParallelExecutionError`, pool rebuilds after a
killed worker, the per-task pool ``timeout``, and the progress callback
``(done, total, task)`` — which also sees sweep-cache hits and
checkpoint replays as tagged :class:`CachedCell` payloads.  Optional
attachments, all off by default and then leaving results untouched: a
:class:`~repro.obs.journal.Journal` (cell lifecycle events), a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.faults.FaultInjector` (worker-site faults, evaluated by
the one worker shim :func:`_attempt`), a
:class:`~repro.run.persistence.CellStore` checkpoint (write-through and
verified replay for crash-safe resume), latency recording (``dist``) and
a span tracer.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.errors import (
    AttemptFailure,
    ConfigurationError,
    InjectedCrash,
    ParallelExecutionError,
)
from repro.faults import NULL_INJECTOR, FaultInjector, raise_worker_fault
from repro.hostmodel.topology import HostTopology
from repro.obs.journal import NULL_JOURNAL, Journal
from repro.obs.metrics import CELL_SECONDS_BUCKETS, MetricsRegistry
from repro.obs.sketch import merge_stream_sketches
from repro.obs.trace_spans import NULL_TRACER
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import make_platform
from repro.rng import RngFactory, StreamSpec
from repro.run.calibration import Calibration
from repro.run.execution import run_cell
from repro.run.experiment import ExperimentSpec
from repro.run.results import RunResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.run.persistence import CellStore

__all__ = [
    "CachedCell",
    "CellTask",
    "ParallelRunner",
    "ProgressFn",
    "cell_tasks",
    "default_jobs",
    "execute_cell",
]

ProgressFn = Callable[[int, int, object], None]

#: Help text of the campaign counters the runner bumps by name.
_COUNTERS = {
    "repro_cells_completed_total": "campaign cells resolved (run or cached)",
    "repro_cells_resumed_total": "cells replayed from resume checkpoints",
    "repro_cache_hit_cells_total": "cells resolved from the sweep cache",
    "repro_pool_rebuilds_total": "worker-pool rebuilds after breakage",
    "repro_cell_failures_total": "cells that failed permanently",
    "repro_cell_retries_total": "cell attempts that failed and were retried",
}


def default_jobs() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _worker_id() -> str:
    """Journal-friendly identity of the current process."""
    return f"pid-{os.getpid()}"


@dataclass(frozen=True)
class CellTask:
    """One independent unit of campaign work: a (platform, instance)
    cell and the stream recipes of its repetitions.

    Everything here is picklable; the platform object itself is rebuilt
    inside the worker from ``(kind, instance, mode)``.
    """

    workload: Workload
    kind: PlatformKind
    mode: ProvisioningMode
    instance: InstanceType
    host: HostTopology
    calib: Calibration
    streams: tuple[StreamSpec, ...]

    @property
    def label(self) -> str:
        """Human-readable task identity for errors and progress."""
        return (
            f"{self.workload.name}/{self.mode.value} {self.kind.value}"
            f"/{self.instance.name}"
        )


@dataclass(frozen=True)
class CachedCell:
    """Progress payload for a cell resolved without execution.

    Tags sweep-cache hits (``cached=True``) and checkpoint replays
    (``resumed=True``) so progress consumers can tell replayed cells
    from executed ones while still seeing an accurate ``(done, total)``.
    """

    task: object
    cached: bool = True
    resumed: bool = False

    @property
    def label(self) -> str:
        """Label of the underlying task."""
        return _label(self.task, 0)


def execute_cell(task: CellTask, dist: bool = False) -> list[RunResult]:
    """Worker entry point: run one cell's repetitions.

    Module-level (hence picklable) and stateless: everything the cell
    needs arrives inside the task.  With ``dist`` each repetition
    carries its simulated latency sketches on ``RunResult.dist`` (a
    runner with ``dist=True`` binds it); metric values are
    byte-identical either way.
    """
    platform = make_platform(task.kind, task.instance, task.mode)
    return run_cell(
        task.workload, platform, task.host, task.calib, list(task.streams),
        dist=dist,
    )


class _Observed(NamedTuple):
    """Worker-side observation wrapped around a task result."""

    result: object
    worker: str
    started: float
    duration: float


class _ObservedFailure(Exception):
    """Worker-side observation wrapped around a task failure.

    Carries the worker identity alongside the original exception so the
    parent can journal which process failed.  The original exception
    travels as ``cause`` (it must be picklable either way — the pool
    pickles raised exceptions too).
    """

    def __init__(self, worker: str, cause: Exception) -> None:
        self.worker = worker
        self.cause = cause
        super().__init__(worker, cause)

    def __str__(self) -> str:
        return str(self.cause)


def _attempt(
    worker: Callable,
    payload,
    label: str,
    attempt: int,
    faults,
    in_pool: bool,
    observe: bool,
):
    """One attempt of ``worker(payload)``: the worker shim of both backends.

    Module-level (hence picklable).  ``faults`` is the parent's
    :class:`~repro.faults.FaultInjector` inline (matching also records
    the firing) or the immutable :class:`~repro.faults.FaultPlan`
    shipped with a pool submission, so whichever worker process picks
    the task up reaches the same verdict.  A matched spec is interpreted
    by :func:`~repro.faults.raise_worker_fault`: in a pool worker
    ``worker.kill`` really kills the process and ``task.timeout`` sleeps
    past the collection timeout; inline both raise
    :class:`~repro.errors.InjectedCrash`.

    With ``observe`` the result comes back as an :class:`_Observed`
    (worker identity and timing) and a failure as an
    :class:`_ObservedFailure`; :class:`~repro.errors.ConfigurationError`
    and :class:`~repro.errors.InjectedCrash` pass through unwrapped so
    the runner's no-retry rule still sees them.
    """
    if faults is not None:
        spec = faults.worker_fault(label, attempt)
        if spec is not None:
            raise_worker_fault(spec, label, in_pool=in_pool)
    if not observe:
        return worker(payload)
    started = time.time()
    t0 = time.perf_counter()
    try:
        result = worker(payload)
    except (ConfigurationError, InjectedCrash):
        raise
    except Exception as exc:
        raise _ObservedFailure(_worker_id(), exc) from exc
    return _Observed(result, _worker_id(), started, time.perf_counter() - t0)


class _Deferred(partial):
    """The inline backend's future: the call runs when it is collected."""

    def result(self, timeout: float | None = None):
        """Run the call now; ``timeout`` bounds pool collection only."""
        return self()


class _Inline:
    """The ``jobs=1`` submit backend.

    :meth:`submit` defers the call until the attempt loop collects it,
    so each cell starts only after the previous cell's progress
    callback has fired.
    """

    submit = _Deferred

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing runs in the background, so nothing to stop."""


def cell_tasks(spec: ExperimentSpec) -> tuple[list[CellTask], list[str]]:
    """Decompose a sweep spec into cell tasks, in serial iteration order.

    Returns the tasks plus the platform label order of the sweep.  The
    stream labels reproduce the serial paired design: the *same* stream
    per (workload, instance, rep) across platforms.
    """
    factory = RngFactory(seed=spec.seed)
    tasks: list[CellTask] = []
    platform_order: list[str] = []
    for instance in spec.instances:
        labels = [
            make_platform(kind, instance, mode).label()
            for kind, mode in spec.platform_grid
        ]
        if not platform_order:
            platform_order = labels
        for kind, mode in spec.platform_grid:
            streams = tuple(
                factory.stream_spec(
                    f"{spec.workload.name}/{instance.name}", rep=rep
                )
                for rep in range(spec.reps)
            )
            tasks.append(
                CellTask(
                    workload=spec.workload,
                    kind=kind,
                    mode=mode,
                    instance=instance,
                    host=spec.host,
                    calib=spec.calib,
                    streams=streams,
                )
            )
    return tasks, platform_order


class ParallelRunner:
    """Deterministic fan-out of independent campaign tasks.

    The runner is the one carrier of executor options: the sweep and
    campaign entry points take a ``runner=`` rather than repeating them.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs every task
        inline in the calling process, one cell at a time, with no
        pool.
    timeout:
        Per-task wait bound in seconds (finite, > 0; ``None`` waits
        forever) once the runner starts collecting a pool task;
        exceeding it raises
        :class:`~repro.errors.ParallelExecutionError` (reason
        ``"timeout"``) instead of hanging the campaign.  Inline tasks
        run to completion.
    retries:
        Extra attempts after a task's first failure (so a task runs at
        most ``retries + 1`` times).
    progress:
        Optional ``callback(done, total, task)`` invoked after every
        completed task, in completion-collection order.
    journal:
        Optional :class:`~repro.obs.journal.Journal`; when attached, the
        runner streams cell lifecycle events into it (and has pool
        workers report identity and timing).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating
        campaign counters (cells completed, retries, cache hits,
        simulator event totals).
    mp_context:
        Optional :mod:`multiprocessing` context for the pool (useful to
        force ``spawn`` in tests).
    faults:
        Optional :class:`~repro.faults.FaultInjector` arming a
        deterministic fault plan at the runner's worker sites; defaults
        to the no-op injector (one ``enabled`` check per task, results
        byte-identical to a runner without the parameter).
    checkpoint:
        Optional :class:`~repro.run.persistence.CellStore`.  When
        attached, every completed cell task is persisted atomically as
        it finishes, and each task is probed (fingerprint-verified)
        before submission — a verified hit is replayed as a
        ``cell-resumed`` cell instead of re-run, a corrupt entry is
        journaled as ``checkpoint-corrupt`` and re-run.
    dist:
        Record per-cell simulated latency distributions: cell workers
        run with a :class:`~repro.obs.sketch.LatencyRecorder`, merged
        per-cell sketches are journaled as ``cell-dist`` events, and the
        ``op`` stream feeds the metrics registry's summary metric.
        Metric values — and therefore reports — are byte-identical with
        recording on or off, and the sketches themselves are identical
        across the inline and pool backends.
    tracer:
        Optional :class:`~repro.obs.trace_spans.SpanTracer`; when
        attached, every cell attempt becomes a span in the campaign
        trace — the inline backend opens a frame around the attempt (so
        engine compile/advance phases and checkpoint writes nest under
        it), and the pool backend emits leaf spans from the worker
        shim's observed timing.
        Defaults to the no-op tracer (one ``enabled`` check per cell);
        spans never feed back into results.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        timeout: float | None = None,
        retries: int = 1,
        progress: ProgressFn | None = None,
        journal: Journal | None = None,
        metrics: MetricsRegistry | None = None,
        mp_context=None,
        faults: FaultInjector | None = None,
        checkpoint: "CellStore | None" = None,
        dist: bool = False,
        tracer=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and not (
            math.isfinite(timeout) and timeout > 0
        ):
            raise ConfigurationError(
                f"timeout must be finite and > 0, got {timeout}"
            )
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.journal = journal or NULL_JOURNAL
        self.metrics = metrics
        self.mp_context = mp_context
        self.faults = faults or NULL_INJECTOR
        self.checkpoint = checkpoint
        self.dist = bool(dist)
        self.tracer = tracer or NULL_TRACER

    # -- generic task execution ---------------------------------------------

    def run_tasks(
        self, worker: Callable, payloads: Iterable
    ) -> list:
        """Run ``worker(payload)`` for every payload; results in input order.

        ``worker`` must be a picklable module-level callable when
        ``jobs > 1``.  With a :attr:`checkpoint` store attached, tasks
        whose checkpoint probe verifies are replayed without execution
        (reported as ``resumed`` :class:`CachedCell` progress payloads)
        and every freshly-executed task is checkpointed as it completes.
        """
        items = list(payloads)
        if self.dist and worker is execute_cell:
            worker = partial(execute_cell, dist=True)
        store = self.checkpoint
        journal = self.journal
        total = len(items)
        keys = [None if store is None else store.key_for(p) for p in items]
        results: list = [None] * total
        replayed: list[int] = []
        pending: list[int] = []
        for i, payload in enumerate(items):
            label = _label(payload, i)
            if keys[i] is not None:
                runs, state = store.load(keys[i])
                if state == "hit":
                    results[i] = runs
                    replayed.append(i)
                    if journal.enabled:
                        journal.record(
                            "cell-resumed", label=label, cached=True,
                            detail=keys[i],
                        )
                    self._count(
                        "repro_cells_completed_total",
                        "repro_cells_resumed_total",
                    )
                    continue
                if state == "corrupt" and journal.enabled:
                    journal.record(
                        "checkpoint-corrupt", label=label, detail=keys[i],
                    )
            pending.append(i)
            if journal.enabled:
                journal.record("cell-queued", label=label)

        for done, i in enumerate(replayed, start=1):
            self._report(done, total, CachedCell(items[i], resumed=True))
        if pending:
            self._collect(worker, items, pending, keys, results, len(replayed))
        return results

    def _collect(
        self,
        worker: Callable,
        items: Sequence,
        pending: list[int],
        keys: list,
        results: list,
        done: int,
    ) -> None:
        """The attempt loop: run ``items[i]`` for each ``i`` in ``pending``
        into ``results[i]``, collecting in input order and retrying failed
        attempts, on the inline backend (``jobs=1``) or a process pool."""
        inline = self.jobs == 1
        journal, tracer = self.journal, self.tracer
        total = len(items)
        # who an unobserved failure is charged to: this process inline,
        # an unknown pool worker otherwise
        home = _worker_id() if inline else ""
        faults = None
        if self.faults.enabled:
            faults = self.faults if inline else self.faults.plan
        observe = inline or journal.enabled
        backend = _Inline() if inline else self._new_executor()
        attempts = [0] * total
        futures: dict = {}

        def submit(i: int) -> None:
            attempts[i] += 1
            futures[i] = backend.submit(
                _attempt, worker, items[i], _label(items[i], i), attempts[i],
                faults, not inline, observe,
            )

        try:
            for i in pending:
                submit(i)
            for pos, i in enumerate(pending):
                label = _label(items[i], i)
                failures: list[AttemptFailure] = []
                while True:
                    frame = None
                    if inline:
                        if journal.enabled:
                            journal.record(
                                "cell-started", label=label, worker=home,
                                attempt=attempts[i], ts=time.time(),
                            )
                        if tracer.enabled:
                            frame = tracer.begin_cell(label, attempt=attempts[i])
                    try:
                        value = futures[i].result(timeout=self.timeout)
                        break
                    except FutureTimeoutError:
                        failures.append(AttemptFailure(
                            attempts[i], "", f"timeout: exceeded {self.timeout}s"
                        ))
                        self._record_failure(
                            label, "", attempts[i],
                            f"timeout after {self.timeout}s", final=True,
                        )
                        raise ParallelExecutionError(
                            label, attempts[i], "timeout",
                            f"exceeded {self.timeout}s", failures=failures,
                        ) from None
                    except BrokenExecutor as exc:
                        failures.append(AttemptFailure(
                            attempts[i], "", f"broken-pool: {exc!r}"
                        ))
                        if attempts[i] > self.retries:
                            self._record_failure(
                                label, "", attempts[i], repr(exc), final=True,
                            )
                            raise ParallelExecutionError(
                                label, attempts[i], "broken-pool", str(exc),
                                failures=failures,
                            ) from exc
                        # the pool is dead: every outstanding future is
                        # lost.  Rebuild it and resubmit the survivors.
                        backend.shutdown(wait=False, cancel_futures=True)
                        backend = self._new_executor()
                        if journal.enabled:
                            journal.record(
                                "pool-rebuilt", label=label, detail=repr(exc)
                            )
                        self._count("repro_pool_rebuilds_total")
                        for j in pending[pos:]:
                            submit(j)
                    except (ConfigurationError, InjectedCrash):
                        # misconfiguration never heals on retry; a simulated
                        # process death must abort like the real thing.
                        if frame is not None:
                            tracer.end_cell(frame, failed=True)
                        raise
                    except Exception as exc:
                        if frame is not None:
                            tracer.end_cell(frame, failed=True)
                        cause, wid = (
                            (exc.cause, exc.worker)
                            if isinstance(exc, _ObservedFailure)
                            else (exc, home)
                        )
                        final = attempts[i] > self.retries
                        failures.append(
                            AttemptFailure(attempts[i], wid, repr(cause))
                        )
                        self._record_failure(
                            label, wid, attempts[i], repr(cause), final=final
                        )
                        if final:
                            raise ParallelExecutionError(
                                label, attempts[i], "exception", str(cause),
                                failures=failures,
                            ) from cause
                        submit(i)

                if isinstance(value, _Observed):
                    result, wid, started, duration = value
                else:
                    result, wid, started, duration = value, "", None, None
                results[i] = result
                if keys[i] is not None and isinstance(result, list):
                    put_start, t0 = time.time(), time.perf_counter()
                    self.checkpoint.put(keys[i], result, label=label)
                    if tracer.enabled:
                        tracer.phase(
                            "checkpoint", put_start, time.perf_counter() - t0
                        )
                if frame is not None:
                    tracer.end_cell(frame)
                elif tracer.enabled and started is not None:
                    tracer.emit_leaf(
                        "cell", label, start=started, duration=duration,
                        worker=wid, attempt=attempts[i],
                    )
                self._observe_completion(
                    label, result, worker=wid, attempt=attempts[i],
                    started=started, duration=duration,
                )
                done += 1
                self._report(done, total, items[i])
        finally:
            backend.shutdown(wait=False, cancel_futures=True)

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self.mp_context
        )

    def _report(self, done: int, total: int, payload) -> None:
        if self.progress is not None:
            self.progress(done, total, payload)

    # -- telemetry ----------------------------------------------------------

    def _count(self, *names: str) -> None:
        """Bump the named campaign counters (when metrics are attached)."""
        if self.metrics is not None:
            for name in names:
                self.metrics.counter(name, _COUNTERS[name]).inc()

    def _observe_completion(
        self,
        label: str,
        result,
        *,
        worker: str,
        attempt: int,
        started: float | None,
        duration: float | None,
    ) -> None:
        """Journal + metrics bookkeeping for one successfully run cell."""
        sim = _sim_counters(result)
        if self.journal.enabled:
            extra = dict(sim)
            if started is not None:
                extra["started"] = started
            self.journal.record(
                "cell-finished",
                label=label,
                worker=worker,
                attempt=attempt,
                duration=duration or 0.0,
                extra=extra,
            )
            ledger = _cell_ledger(result)
            if ledger is not None:
                self.journal.record(
                    "cell-ledger",
                    label=label,
                    worker=worker,
                    attempt=attempt,
                    extra=ledger,
                )
        dist = _cell_dist(result)
        if dist is not None and self.journal.enabled:
            first = result[0]
            self.journal.record(
                "cell-dist",
                label=label,
                worker=worker,
                attempt=attempt,
                extra={
                    "workload": first.workload,
                    "platform": first.platform_label,
                    "instance": first.instance_name,
                    "streams": {
                        name: sk.to_dict() for name, sk in dist.items()
                    },
                },
            )
        m = self.metrics
        if m is not None and dist is not None:
            for stream, metric, help_text in (
                ("op", "repro_sim_op_response_seconds",
                 "simulated per-operation response time"),
                ("cell", "repro_sim_makespan_seconds",
                 "simulated per-repetition wall time"),
            ):
                sk = dist.get(stream)
                if sk is not None and sk.count:
                    m.summary(metric, help_text).merge_sketch(sk)
        self._count("repro_cells_completed_total")
        if m is not None:
            if duration is not None:
                m.histogram(
                    "repro_cell_seconds", CELL_SECONDS_BUCKETS, "cell wall time"
                ).observe(duration)
            if sim:
                m.counter(
                    "repro_sim_runs_total", "simulated repetitions executed"
                ).inc(sim["runs"])
                m.counter(
                    "repro_sim_sched_events_total", "simulator scheduling events"
                ).inc(sim["sched_events"])
                m.counter(
                    "repro_sim_migrations_total",
                    "expected simulator thread migrations",
                ).inc(sim["migrations"])

    def _record_failure(
        self, label: str, worker: str, attempt: int, detail: str, *, final: bool
    ) -> None:
        """Journal + metrics bookkeeping for one failed attempt."""
        if self.journal.enabled:
            self.journal.record(
                "cell-failed" if final else "cell-retried",
                label=label,
                worker=worker,
                attempt=attempt,
                detail=detail,
            )
        self._count(
            "repro_cell_failures_total" if final else "repro_cell_retries_total"
        )

    def report_cached(self, tasks: Sequence) -> None:
        """Deliver cache-resolved cells to progress, journal, and metrics.

        Cells satisfied by the sweep cache never reach the pool, so
        without this call the progress stream under-reports ``(done,
        total)``.  Each cell is reported as a tagged :class:`CachedCell`
        and journaled as ``cell-cache-hit``.
        """
        n = len(tasks)
        for i, task in enumerate(tasks):
            if self.journal.enabled:
                self.journal.record(
                    "cell-cache-hit", label=_label(task, i), cached=True
                )
            self._count(
                "repro_cells_completed_total", "repro_cache_hit_cells_total"
            )
            self._report(i + 1, n, CachedCell(task))


def _label(payload, index: int) -> str:
    return getattr(payload, "label", None) or f"task-{index}"


def _sim_counters(result) -> dict:
    """Aggregate perf counters when a task result is a list of runs."""
    if not isinstance(result, list) or not result:
        return {}
    sched = migrations = 0.0
    runs = 0
    for r in result:
        counters = getattr(r, "counters", None)
        if counters is None:
            return {}
        sched += float(counters.sched_events)
        migrations += float(counters.migrations + counters.wake_migrations)
        runs += 1
    return {"runs": runs, "sched_events": sched, "migrations": migrations}


def _cell_dist(result):
    """Merged per-stream latency sketches of one cell's repetitions.

    Returns ``{stream: QuantileSketch}`` (sorted stream names) when
    every run carries recorded distributions, else None.  The merge is
    exactly order- and partition-invariant, so the payload is identical
    whether the cell ran inline or on a pool worker.
    """
    if not isinstance(result, list) or not result:
        return None
    dists = [getattr(r, "dist", None) for r in result]
    if any(d is None for d in dists):
        return None
    return merge_stream_sketches(dists)


def _cell_ledger(result) -> dict | None:
    """Coarse overhead-ledger payload for one cell's merged counters.

    Returns the ``cell-ledger`` event extra (mechanism decomposition of
    the cell's core-seconds, from the always-on perf counters), or None
    when the result carries no counters.  The worker already paid for
    the counters; the fold is a handful of scalar ops per cell.
    """
    if not isinstance(result, list) or not result:
        return None
    merged = None
    for r in result:
        counters = getattr(r, "counters", None)
        if counters is None:
            return None
        merged = counters if merged is None else merged.merge(counters)
    from repro.analysis.ledger import OverheadLedger

    ledger = OverheadLedger.from_counters(merged)
    return {
        "total_core_seconds": ledger.total_core_seconds,
        "mechanisms": ledger.mechanisms(),
        "dominant": ledger.dominant_mechanism(),
        "residual": ledger.residual,
    }
