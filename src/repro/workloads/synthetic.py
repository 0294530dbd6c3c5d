"""Parametric synthetic workload for ablations and property tests.

The paper's cross-application analysis (Section IV) varies application
characteristics one axis at a time: CPU- vs IO-boundedness (IV-C), degree
of multitasking (IV-D), container size (IV-A).  ``SyntheticWorkload``
exposes those axes directly so the ablation benchmarks can sweep them
continuously instead of being limited to the four fixed applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.hostmodel.irq import IrqKind
from repro.units import MB
from repro.workloads.base import (
    ProcessSpec,
    ThreadSpec,
    Workload,
    WorkloadProfile,
    jittered,
)
from repro.workloads.segments import ComputeSegment, IoSegment, Segment

__all__ = ["SyntheticWorkload"]


@dataclass
class SyntheticWorkload(Workload):
    """A tunable mix of compute and IO phases.

    Parameters
    ----------
    n_processes:
        Degree of multitasking (Section IV-D axis).
    threads_per_process:
        Threads in each process.
    phases:
        Compute/IO alternations per thread.
    compute_per_phase:
        Core-seconds per compute phase.
    io_fraction:
        In [0, 1]: fraction of a thread's unloaded wall time spent in IO
        (Section IV-C axis).  0 gives a pure-compute workload; larger
        values convert compute time into blocking IO time.
    mem_intensity:
        Memory-boundedness of the compute phases.
    jitter_sigma:
        Log-normal per-phase jitter.
    """

    n_processes: int = 1
    threads_per_process: int = 4
    phases: int = 10
    compute_per_phase: float = 0.1
    io_fraction: float = 0.0
    mem_intensity: float = 0.5
    jitter_sigma: float = 0.02

    name = "Synthetic"
    version = "1.0"
    metric = "makespan"

    def __post_init__(self) -> None:
        if not 1 <= self.n_processes < math.inf:
            raise WorkloadError("n_processes must be >= 1")
        if not 1 <= self.threads_per_process < math.inf:
            raise WorkloadError("threads_per_process must be >= 1")
        if not 1 <= self.phases < math.inf:
            raise WorkloadError("phases must be >= 1")
        if not 0.0 < self.compute_per_phase < math.inf:
            raise WorkloadError("compute_per_phase must be finite and > 0")
        if not 0.0 <= self.io_fraction < 1.0:
            raise WorkloadError("io_fraction must be in [0, 1)")
        if not 0.0 <= self.mem_intensity <= 1.0:
            raise WorkloadError("mem_intensity must be in [0, 1]")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise WorkloadError("jitter_sigma must be finite and >= 0")

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=1.0 - self.io_fraction,
            io_intensity=self.io_fraction,
            description="parametric compute/IO mix for ablation sweeps",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        io_per_phase = (
            self.compute_per_phase * self.io_fraction / (1.0 - self.io_fraction)
            if self.io_fraction > 0
            else 0.0
        )
        # each thread's row: every phase's compute work, then its IO time
        phase = [self.compute_per_phase] + ([io_per_phase] if io_per_phase > 0 else [])
        sizes = iter(
            jittered(
                np.tile(
                    np.array(phase, dtype=np.float64),
                    (self.n_processes * self.threads_per_process, self.phases),
                ),
                self.jitter_sigma,
                rng,
            )
        )
        processes: list[ProcessSpec] = []
        for p in range(self.n_processes):
            threads: list[ThreadSpec] = []
            for t in range(self.threads_per_process):
                row = next(sizes)
                program: list[Segment] = []
                for i in range(0, len(row), len(phase)):
                    program.append(
                        ComputeSegment(
                            work=row[i], mem_intensity=self.mem_intensity
                        )
                    )
                    if io_per_phase > 0:
                        program.append(
                            IoSegment(
                                device_time=row[i + 1],
                                irqs=1,
                                kind=IrqKind.DISK,
                            )
                        )
                threads.append(
                    ThreadSpec(
                        program=program,
                        working_set_bytes=8 * MB,
                        name=f"syn-p{p}-t{t}",
                    )
                )
            processes.append(
                ProcessSpec(
                    threads=threads,
                    name=f"syn-p{p}",
                    memory_demand_bytes=32 * MB,
                )
            )
        return processes
