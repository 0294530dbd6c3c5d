"""Experiment sweeps: repetitions over platform x instance grids.

The paper's protocol (Section III): run each configuration in isolation,
repeat 6-20 times, report mean and 95 % confidence interval.
:func:`run_experiment` executes an :class:`ExperimentSpec` cell by cell
with independent deterministic random streams per repetition;
:func:`run_platform_sweep` is the one-call version for the standard
seven-platform figure layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hostmodel.topology import HostTopology, r830_host
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import make_platform, paper_platform_set
from repro.rng import DEFAULT_SEED
from repro.run.calibration import Calibration
from repro.run.results import ExperimentResult, SweepResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.run.parallel import ParallelRunner
    from repro.run.persistence import SweepCache

__all__ = [
    "ExperimentSpec",
    "platform_sweep_spec",
    "run_experiment",
    "run_platform_sweep",
]


@dataclass
class ExperimentSpec:
    """A full sweep specification.

    Parameters
    ----------
    workload:
        The application model.
    instances:
        Instance types to sweep (the figure's x-axis).
    platform_grid:
        (kind, mode) pairs to evaluate at each instance type.
    host:
        Physical host (default: the paper's R830).
    reps:
        Repetitions per cell (paper: 20 for FFmpeg/MPI/Cassandra, 6 for
        WordPress).
    calib:
        Calibration constants.
    seed:
        Root seed of the deterministic random streams.
    """

    workload: Workload
    instances: list[InstanceType]
    platform_grid: list[tuple[PlatformKind, ProvisioningMode]]
    host: HostTopology = field(default_factory=r830_host)
    reps: int = 20
    calib: Calibration = field(default_factory=Calibration)
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.instances:
            raise ConfigurationError("instances must be non-empty")
        if not self.platform_grid:
            raise ConfigurationError("platform_grid must be non-empty")
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")


def run_experiment(
    spec: ExperimentSpec,
    *,
    runner: "ParallelRunner | None" = None,
) -> SweepResult:
    """Execute a sweep specification and return the result grid.

    Each repetition draws its workload randomness from an independent
    stream keyed by (workload, instance, rep) — the *same* stream across
    platforms, so platform comparisons at a given rep see identical
    workload realizations (paired design, tighter overhead ratios).
    The sweep is decomposed into cell tasks
    (:func:`~repro.run.parallel.cell_tasks`) and the grid reassembled in
    serial order, so the result is field-for-field identical at any job
    count.

    Parameters
    ----------
    runner:
        The :class:`~repro.run.parallel.ParallelRunner` executing the
        cells, carrying every executor option (job count, retries,
        progress, journal, latency recording, checkpoint, tracer).
        Defaults to ``ParallelRunner(1)``: inline, one retry per cell.
        With a journal attached the sweep is bracketed by
        ``sweep-started`` / ``sweep-finished`` events.
    """
    from repro.run.parallel import ParallelRunner, cell_tasks, execute_cell

    runner = runner or ParallelRunner(1)
    jl = runner.journal
    if jl.enabled:
        jl.record("sweep-started", label=spec.workload.name)
    t0 = time.perf_counter()
    tasks, platform_order = cell_tasks(spec)
    cell_runs = runner.run_tasks(execute_cell, tasks)
    cells = {
        (
            make_platform(t.kind, t.instance, t.mode).label(),
            t.instance.name,
        ): ExperimentResult(runs)
        for t, runs in zip(tasks, cell_runs)
    }
    if jl.enabled:
        jl.record(
            "sweep-finished",
            label=spec.workload.name,
            duration=time.perf_counter() - t0,
        )
    return SweepResult(
        workload=spec.workload.name,
        cells=cells,
        instance_order=[i.name for i in spec.instances],
        platform_order=platform_order,
    )


def platform_sweep_spec(
    workload: Workload,
    instances: list[InstanceType],
    *,
    host: HostTopology | None = None,
    reps: int = 20,
    calib: Calibration | None = None,
    seed: int = DEFAULT_SEED,
) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of the standard seven-platform sweep.

    Exposed separately from :func:`run_platform_sweep` so callers can
    probe a :class:`~repro.run.persistence.SweepCache` for the exact
    spec a sweep would run.
    """
    if not instances:
        raise ConfigurationError("instances must be non-empty")
    grid: list[tuple[PlatformKind, ProvisioningMode]] = []
    for p in paper_platform_set(instances[0]):
        grid.append((p.kind, p.mode))
    return ExperimentSpec(
        workload=workload,
        instances=instances,
        platform_grid=grid,
        host=host or r830_host(),
        reps=reps,
        calib=calib or Calibration(),
        seed=seed,
    )


def run_platform_sweep(
    workload: Workload,
    instances: list[InstanceType],
    *,
    host: HostTopology | None = None,
    reps: int = 20,
    calib: Calibration | None = None,
    seed: int = DEFAULT_SEED,
    runner: "ParallelRunner | None" = None,
    cache: "SweepCache | None" = None,
) -> SweepResult:
    """Run the standard seven-platform figure sweep.

    Evaluates ``Vanilla/Pinned {VM, VMCN, CN}`` plus ``Vanilla BM`` —
    the exact configuration set of Figs. 3-6 — on ``runner`` (see
    :func:`run_experiment`).  With a ``cache`` the sweep is first probed
    by content fingerprint and only executed (then written back) on a
    miss — an undecodable (torn-write) entry is treated as a miss, noted
    in the probe event, and atomically overwritten.  Cache-resolved
    cells are still counted: they reach the runner's progress callback
    as tagged cache hits and its journal as ``cell-cache-hit`` events,
    so ``(done, total)`` stays accurate.
    """
    from repro.run.parallel import ParallelRunner, cell_tasks

    spec = platform_sweep_spec(
        workload,
        instances,
        host=host,
        reps=reps,
        calib=calib,
        seed=seed,
    )
    runner = runner or ParallelRunner(1)
    if cache is None:
        return run_experiment(spec, runner=runner)

    present = cache.contains(spec)
    cached = cache.get(spec, on_corrupt="miss")
    if runner.journal.enabled:
        detail = cache.path_for(spec).name
        if present and cached is None:
            detail += " (corrupt entry ignored; re-running)"
        runner.journal.record(
            "sweep-cache-probe",
            label=workload.name,
            cached=cached is not None,
            detail=detail,
        )
    if runner.metrics is not None:
        runner.metrics.counter(
            "repro_cache_probes_total", "sweep-cache fingerprint probes"
        ).inc()
    if cached is not None:
        runner.report_cached(cell_tasks(spec)[0])
        return cached
    sweep = run_experiment(spec, runner=runner)
    cache.put(spec, sweep)
    return sweep
