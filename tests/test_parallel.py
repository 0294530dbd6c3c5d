"""Property tests for the determinism-preserving parallel executor.

The core invariant: because every repetition's randomness is a pure
function of ``(seed, label, rep)`` carried inside the task, a sweep run
on N worker processes is field-for-field identical to the serial run —
regardless of worker count, scheduling order, injected crashes, or
retries.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FfmpegWorkload,
    SyntheticWorkload,
    instance_type,
    run_experiment,
    run_platform_sweep,
)
from repro.analysis.report import generate_report
from repro.errors import (
    ConfigurationError,
    InjectedFault,
    ParallelExecutionError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.hostmodel.topology import r830_host
from repro.obs.journal import MemoryJournal
from repro.platforms.base import PlatformKind
from repro.rng import RngFactory, StreamSpec
from repro.run.calibration import Calibration
from repro.run.campaign import Campaign, run_campaign
from repro.errors import AttemptFailure
from repro.run.experiment import ExperimentSpec, platform_sweep_spec
from repro.run.parallel import (
    CachedCell,
    CellTask,
    ParallelRunner,
    cell_tasks,
    default_jobs,
    execute_cell,
)
from repro.run.persistence import SweepCache
from repro.sched.affinity import ProvisioningMode
from repro.workloads.openloop import OpenLoopCassandra, OpenLoopWordPress

GOLDEN_FIG3 = Path(__file__).parent / "golden" / "campaign_fig3.json"


def tiny_spec(seed=1, reps=2, instances=("Large", "xLarge")) -> ExperimentSpec:
    return ExperimentSpec(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=0.05
        ),
        instances=[instance_type(n) for n in instances],
        platform_grid=[
            (PlatformKind.BM, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.PINNED),
        ],
        reps=reps,
        seed=seed,
    )


def sweep_json(sweep) -> str:
    return json.dumps(sweep.to_dict(), sort_keys=True)


# -- crash/chaos workers (module-level: must be picklable) -----------------


def _crashing_execute_cell(payload):
    """Raise once per (sentinel, task) pair, then behave normally."""
    task, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write(task.label)
        raise RuntimeError(f"injected crash for {task.label}")
    return execute_cell(task)


def _dying_execute_cell(payload):
    """Kill the whole worker process once (breaks the pool), then work."""
    task, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write(task.label)
        os._exit(13)
    return execute_cell(task)


def _sleepy_worker(payload):
    time.sleep(payload)
    return payload


def _flaky_add_one(payload):
    value, sentinel = payload
    if value == 3 and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        raise ValueError("flaky")
    return value + 1


def _always_fails(payload):
    raise RuntimeError("permanent failure")


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 0x5EED_2020])
    def test_sweep_identical_across_job_counts(self, seed):
        spec = tiny_spec(seed=seed)
        serial = run_experiment(spec)
        for jobs in (2, 4):
            parallel = run_experiment(spec, runner=ParallelRunner(jobs))
            assert sweep_json(parallel) == sweep_json(serial)

    def test_platform_sweep_jobs_param(self):
        wl = FfmpegWorkload(video_seconds=0.5, n_sync_chunks=4)
        insts = [instance_type("Large")]
        serial = run_platform_sweep(wl, insts, reps=2, seed=9)
        parallel = run_platform_sweep(
            wl, insts, reps=2, seed=9, runner=ParallelRunner(3)
        )
        assert sweep_json(parallel) == sweep_json(serial)

    def test_cell_order_matches_serial(self):
        spec = tiny_spec()
        serial = run_experiment(spec)
        parallel = run_experiment(spec, runner=ParallelRunner(2))
        assert list(parallel.cells) == list(serial.cells)
        assert parallel.platform_order == serial.platform_order
        assert parallel.instance_order == serial.instance_order

    def test_campaign_identical(self):
        campaign = Campaign(reps_fast=1, reps_io=1, include=("fig7", "fig8"))
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, jobs=4)
        assert parallel.fig7 == serial.fig7
        assert parallel.fig8 == serial.fig8

    def test_campaign_sweep_byte_identical_after_json_roundtrip(self, tmp_path):
        """Acceptance: run_campaign(..., jobs=4) sweeps byte-identical to
        the serial run at the same seed, after a JSON save/load cycle."""
        from repro.run.results import SweepResult

        campaign = Campaign(reps_fast=1, reps_io=1, include=("fig3",))
        serial = run_campaign(campaign).sweep("fig3")
        parallel = run_campaign(campaign, jobs=4).sweep("fig3")
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        serial.save(a)
        parallel.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert sweep_json(SweepResult.load(a)) == sweep_json(
            SweepResult.load(b)
        )

    def test_stream_spec_equals_factory_stream(self):
        factory = RngFactory(seed=123)
        spec = factory.stream_spec("x/y", rep=5)
        assert spec == StreamSpec(seed=123, label="x/y", rep=5)
        a = factory.fresh_stream("x/y", rep=5).random(8)
        b = spec.make().random(8)
        assert (a == b).all()


class TestLargeNGolden:
    def test_multitask_split30_matches_pre_refactor_engine(self):
        """480 threads with barriers on a 16-core instance — the largest
        homogeneous-wave case — pinned bit-for-bit against the output of
        the pre-compiled-tables engine (tests/golden/engine_large_n.json).

        Exact float equality on purpose: the compiled-table/calendar hot
        path guarantees IEEE-identical results, and this is the case
        that exercises the vectorized wave advance hardest.
        """
        from repro import make_platform, run_once

        golden = json.loads(
            (Path(__file__).parent / "golden" / "engine_large_n.json")
            .read_text()
        )
        rng = RngFactory().fresh_stream("perf")
        rr = run_once(
            FfmpegWorkload().split(30),
            make_platform("CN", instance_type("4xLarge"), "vanilla"),
            r830_host(),
            rng=rng,
        )
        assert rr.value == golden["value"]
        assert rr.makespan == golden["makespan"]


class TestFailureInjection:
    def test_crashing_worker_retries_to_identical_output(self, tmp_path):
        """A worker that raises once is retried; the final sweep is
        byte-identical to the clean parallel run."""
        spec = tiny_spec(seed=4)
        tasks, platform_order = cell_tasks(spec)
        clean = ParallelRunner(4).run_tasks(execute_cell, tasks)

        sentinel = str(tmp_path / "crash-once")
        payloads = [(t, sentinel) for t in tasks]
        retried = ParallelRunner(4, retries=2).run_tasks(
            _crashing_execute_cell, payloads
        )
        assert os.path.exists(sentinel)  # the crash really happened
        flat = lambda runs: [r.to_dict() for cell in runs for r in cell]
        assert json.dumps(flat(retried), sort_keys=True) == json.dumps(
            flat(clean), sort_keys=True
        )

    def test_dead_worker_process_rebuilds_pool(self, tmp_path):
        """os._exit in a worker breaks the executor; the runner rebuilds
        it and still completes with correct results."""
        spec = tiny_spec(seed=5, instances=("Large",))
        tasks, _ = cell_tasks(spec)
        sentinel = str(tmp_path / "die-once")
        payloads = [(t, sentinel) for t in tasks]
        results = ParallelRunner(2, retries=2).run_tasks(
            _dying_execute_cell, payloads
        )
        clean = ParallelRunner(1).run_tasks(execute_cell, tasks)
        assert [len(r) for r in results] == [len(r) for r in clean]
        assert [
            [run.value for run in cell] for cell in results
        ] == [[run.value for run in cell] for cell in clean]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_raise_structured_error(self, jobs):
        runner = ParallelRunner(jobs, retries=1)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(_always_fails, ["a", "b"])
        err = exc_info.value
        assert err.reason == "exception"
        assert err.attempts == 2  # first try + one retry
        assert "permanent failure" in str(err)
        assert "history" in str(err)
        assert len(err.failures) == 2
        assert [f.attempt for f in err.failures] == [1, 2]
        assert all(isinstance(f, AttemptFailure) for f in err.failures)
        assert all("permanent failure" in f.error for f in err.failures)
        # inline attempts run in this process, so the worker id is known;
        # an unjournaled pool worker reports no identity
        home = f"pid-{os.getpid()}" if jobs == 1 else ""
        assert all(f.worker == home for f in err.failures)

    def test_timeout_surfaces_instead_of_hanging(self):
        runner = ParallelRunner(2, timeout=0.2, retries=0)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(_sleepy_worker, [30.0])
        assert exc_info.value.reason == "timeout"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_flaky_task_retried_to_success(self, jobs, tmp_path):
        sentinel = str(tmp_path / "flaky")
        runner = ParallelRunner(jobs, retries=1)
        out = runner.run_tasks(
            _flaky_add_one, [(v, sentinel) for v in range(5)]
        )
        assert out == [1, 2, 3, 4, 5]
        assert os.path.exists(sentinel)

    def test_timeout_error_carries_failure_history(self):
        runner = ParallelRunner(2, timeout=0.2, retries=0)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(_sleepy_worker, [30.0])
        err = exc_info.value
        assert len(err.failures) == 1
        assert "timeout" in err.failures[0].error


class TestRunnerConfig:
    def test_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(0)

    def test_bad_retries(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(2, retries=-1)

    def test_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(2, timeout=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout):
        # nan would time every pool task out at once; inf overflows
        # Future.result's deadline
        with pytest.raises(ConfigurationError, match="finite"):
            ParallelRunner(2, timeout=timeout)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_empty_task_list(self):
        assert ParallelRunner(4).run_tasks(_always_fails, []) == []

    @pytest.mark.parametrize(
        "option",
        ["jobs", "journal", "checkpoint", "dist", "trace"],
    )
    def test_campaign_runner_excludes_executor_options(self, option, tmp_path):
        """Executor options have one carrier: a runner passed together
        with any of them is a configuration error, not a silent merge."""
        from repro.obs.trace_spans import TraceContext, mint_trace_id
        from repro.run.persistence import CellStore

        value = {
            "jobs": 2,
            "journal": MemoryJournal(),
            "checkpoint": CellStore(tmp_path / "cells"),
            "dist": True,
            "trace": TraceContext(mint_trace_id("runner-conflict")),
        }[option]
        calls = []
        runner = ParallelRunner(1)
        runner.run_tasks = lambda *a: calls.append(a)
        with pytest.raises(ConfigurationError, match=option):
            run_campaign(_fig3_campaign(), runner=runner, **{option: value})
        assert calls == []  # rejected before anything ran

    def test_cell_task_label(self):
        spec = tiny_spec(instances=("Large",))
        tasks, _ = cell_tasks(spec)
        assert tasks[0].label == "Synthetic/vanilla BM/Large"


class TestProgressReporting:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_progress_counts_every_task(self, jobs):
        spec = tiny_spec(seed=2, instances=("Large",))
        tasks, _ = cell_tasks(spec)
        seen: list[tuple[int, int, str]] = []
        runner = ParallelRunner(
            jobs, progress=lambda d, t, task: seen.append((d, t, task.label))
        )
        runner.run_tasks(execute_cell, tasks)
        assert [d for d, _, _ in seen] == list(range(1, len(tasks) + 1))
        assert all(t == len(tasks) for _, t, _ in seen)
        assert [label for _, _, label in seen] == [t.label for t in tasks]

    def test_inline_cell_starts_after_previous_progress(self):
        """With one job each worker call comes after the previous cell's
        progress callback, so the gap between two callbacks is exactly
        one cell's execution."""
        events = []

        def worker(payload):
            events.append(("call", payload))
            return payload

        runner = ParallelRunner(
            1, progress=lambda done, total, payload: events.append(
                ("progress", payload)
            )
        )
        assert runner.run_tasks(worker, [0, 1, 2]) == [0, 1, 2]
        assert events == [
            ("call", 0), ("progress", 0),
            ("call", 1), ("progress", 1),
            ("call", 2), ("progress", 2),
        ]


class TestCacheIntegration:
    def test_parallel_run_writes_cache(self, tmp_path):
        cache = SweepCache(tmp_path)
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        sweep = run_platform_sweep(
            wl, insts, reps=1, seed=3, runner=ParallelRunner(2), cache=cache
        )
        assert len(list(tmp_path.glob("sweep-*.json"))) == 1
        cached = run_platform_sweep(
            wl, insts, reps=1, seed=3, runner=ParallelRunner(2), cache=cache
        )
        assert sweep_json(cached) == sweep_json(sweep)

    def test_warm_cache_reports_tagged_progress(self, tmp_path):
        """Cache probe happens before submission, but the resolved cells
        still reach the progress callback — as tagged cache hits with an
        accurate (done, total) — instead of silently vanishing."""
        cache = SweepCache(tmp_path)
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        run_platform_sweep(wl, insts, reps=1, seed=3, cache=cache)

        events: list[tuple[int, int, object]] = []
        runner = ParallelRunner(
            2, progress=lambda d, t, task: events.append((d, t, task))
        )
        run_platform_sweep(
            wl, insts, reps=1, seed=3, runner=runner, cache=cache
        )
        spec = platform_sweep_spec(wl, insts, reps=1, seed=3)
        tasks, _ = cell_tasks(spec)
        assert [d for d, _, _ in events] == list(range(1, len(tasks) + 1))
        assert all(t == len(tasks) for _, t, _ in events)
        assert all(isinstance(p, CachedCell) and p.cached for _, _, p in events)
        assert [p.label for _, _, p in events] == [t.label for t in tasks]

    def test_serial_and_parallel_share_cache_entries(self, tmp_path):
        """Identical spec -> identical fingerprint -> one cache entry,
        whichever path ran first."""
        cache = SweepCache(tmp_path)
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        run_platform_sweep(wl, insts, reps=1, seed=3, cache=cache)
        run_platform_sweep(wl, insts, reps=1, seed=3, runner=ParallelRunner(2), cache=cache)
        assert len(list(tmp_path.glob("sweep-*.json"))) == 1


def _fig3_campaign() -> Campaign:
    return Campaign(reps_fast=1, include=("fig3",))


def _fig3_golden() -> str:
    return json.loads(GOLDEN_FIG3.read_text())["report"]


class TestCampaignGolden:
    """The pinned fig3 report (``tests/golden/campaign_fig3.json``) gates
    the serial, pool and crash-then-resume campaign paths byte for byte.

    Regenerate only after an intentional engine-semantics change::

        PYTHONPATH=src python - <<'EOF'
        import json, pathlib
        from repro import Campaign, run_campaign
        from repro.analysis.report import generate_report
        p = pathlib.Path("tests/golden/campaign_fig3.json")
        d = json.loads(p.read_text())
        d["report"] = generate_report(
            run_campaign(Campaign(reps_fast=1, include=("fig3",)))
        )
        p.write_text(json.dumps(d, indent=2) + "\\n")
        EOF
    """

    def test_scalar_engine_matches_golden(self):
        result = run_campaign(_fig3_campaign())
        assert generate_report(result) == _fig3_golden()

    def test_pool_matches_golden(self):
        result = run_campaign(_fig3_campaign(), jobs=2)
        assert generate_report(result) == _fig3_golden()

    @pytest.mark.parametrize("seed", [1, 5])
    def test_resume_matches_golden(self, seed, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        inj = FaultInjector(FaultPlan.random(seed, abort=True))
        try:
            run_campaign(_fig3_campaign(), cache=cache, resume=True, faults=inj)
        except (InjectedFault, ParallelExecutionError):
            pass  # the scheduled crash
        result = run_campaign(_fig3_campaign(), cache=cache, resume=True)
        assert generate_report(result) == _fig3_golden()


# Platform/mode combos cycled over the generated open-loop cells.
COMBOS = (("BM", "vanilla"), ("CN", "pinned"), ("VM", "vanilla"))


def _mk_tasks(workloads, *, instance="xLarge", reps=2, seed=7):
    """One CellTask per workload over the cycled platform combos."""
    factory = RngFactory(seed)
    inst = instance_type(instance)
    tasks = []
    for i, wl in enumerate(workloads):
        kind, mode = COMBOS[i % len(COMBOS)]
        streams = tuple(
            factory.stream_spec(f"ol/{i}", rep=k) for k in range(reps)
        )
        tasks.append(
            CellTask(
                workload=wl, kind=PlatformKind(kind),
                mode=ProvisioningMode(mode), instance=inst,
                host=r830_host(), calib=Calibration(), streams=streams,
            )
        )
    return tasks


def _runs_json(cells):
    """Canonical per-run serialization (counters included, NaN-safe)."""
    return [
        [
            json.dumps(
                {**rr.to_dict(), "counters": rr.counters.to_dict()},
                sort_keys=True,
            )
            for rr in runs
        ]
        for runs in cells
    ]


OL_PARAMS = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(["wordpress", "cassandra"]),
        "arrivals": st.sampled_from(["poisson", "bursty", "diurnal"]),
        "rate": st.sampled_from([60.0, 240.0]),
        "n_requests": st.integers(4, 20),
    }
)


def _mk_open_loop(p):
    cls = OpenLoopWordPress if p["workload"] == "wordpress" else OpenLoopCassandra
    return cls(rate=p["rate"], n_requests=p["n_requests"], arrivals=p["arrivals"])


class TestOpenLoopPool:
    """Open-loop cells are bit-identical inline and on a worker pool.

    The request-per-arrival workloads record latency sketches
    unconditionally (``always_dist``), so ``_runs_json`` — which
    serializes ``RunResult.dist`` — covers the sketch payloads too; the
    journal check additionally pins the ``cell-dist`` event bytes that
    ``repro obs dist`` consumes.
    """

    @settings(max_examples=8, deadline=None)
    @given(st.lists(OL_PARAMS, min_size=2, max_size=4), st.integers(0, 2**16))
    def test_pool_bit_identical(self, params, seed):
        tasks = _mk_tasks([_mk_open_loop(p) for p in params], seed=seed % 1000)
        serial = ParallelRunner(1).run_tasks(execute_cell, tasks)
        assert all(
            "op" in rr.dist for runs in serial for rr in runs
        ), "open-loop cells must record latency sketches unconditionally"
        pool = ParallelRunner(2).run_tasks(execute_cell, tasks)
        assert _runs_json(pool) == _runs_json(serial)

    def test_cell_dist_payloads_identical_across_legs(self):
        workloads = [
            OpenLoopWordPress(rate=120.0, n_requests=12),
            OpenLoopWordPress(rate=120.0, n_requests=12),
            OpenLoopCassandra(rate=90.0, n_requests=10, arrivals="bursty"),
        ]
        payloads = []
        for jobs in (1, 2):
            jl = MemoryJournal()
            ParallelRunner(jobs, journal=jl).run_tasks(
                execute_cell, _mk_tasks(workloads, seed=17)
            )
            payloads.append({
                e.label: json.dumps(e.extra["streams"], sort_keys=True)
                for e in jl.events
                if e.kind == "cell-dist"
            })
        assert len(payloads[0]) == len(workloads)
        assert payloads[0] == payloads[1]

    def test_mixed_open_and_closed_corpus(self):
        """Arrival-process cells ride in a campaign next to closed-loop
        synthetic cells without perturbing either leg's bytes."""
        workloads = [
            SyntheticWorkload(threads_per_process=2, phases=3),
            OpenLoopWordPress(rate=150.0, n_requests=10, arrivals="diurnal"),
            SyntheticWorkload(threads_per_process=2, phases=3),
            OpenLoopCassandra(rate=80.0, n_requests=8),
        ]
        tasks = _mk_tasks(workloads, instance="Large", seed=23)
        serial = ParallelRunner(1).run_tasks(execute_cell, tasks)
        pool = ParallelRunner(2).run_tasks(execute_cell, tasks)
        assert _runs_json(pool) == _runs_json(serial)
        # closed-loop cells keep their no-sketch default
        assert serial[0][0].dist is None or "op" not in serial[0][0].dist
        assert "op" in serial[1][0].dist
