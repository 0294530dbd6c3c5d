"""Workload abstraction: from an application model to thread programs.

A :class:`Workload` is instantiated with application-level parameters and,
given the number of cores of the instance type it will run on, *builds* a
list of :class:`ProcessSpec` (each holding :class:`ThreadSpec` programs).
The build step is where application behaviour lives: FFmpeg spawns
``min(cores, 16)`` worker threads, WordPress spawns 1 000 single-threaded
request processes, Cassandra spawns one process with 100 stress threads,
MPI spawns one rank per core.

Workloads also expose a :class:`WorkloadProfile` of coarse characteristics
(CPU duty cycle, IRQ volume, working set) that the platform overhead
models consume — mirroring how the paper reasons about "CPU-bound" versus
"IO-bound" application classes.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.segments import (
    Segment,
    count_irqs,
    total_compute_work,
    total_io_time,
    validate_program,
)

__all__ = [
    "OpMark",
    "ThreadSpec",
    "ProcessSpec",
    "WorkloadProfile",
    "Workload",
    "jittered",
]


def jittered(
    base: np.ndarray, sigma: float, rng: np.random.Generator
) -> list:
    """``base * exp(N(0, sigma))`` elementwise, as nested Python floats.

    All draws come from one vectorized call, consumed in ``base``'s
    row-major order.  ``Generator.normal(size=N)`` yields the same values,
    and leaves the same generator state, as N sequential scalar draws, and
    ``np.exp`` and the product are elementwise IEEE operations, so the
    result is bit-identical to drawing one scalar jitter per element in
    that order.  ``sigma == 0`` draws nothing and returns ``base``.
    """
    if sigma == 0:
        return base.tolist()
    return (base * np.exp(rng.normal(0.0, sigma, size=base.shape))).tolist()


@dataclass(frozen=True)
class OpMark:
    """Marks the completion point of one user-visible operation.

    Response-time workloads (WordPress requests, Cassandra operations)
    attach marks to thread programs: when the thread completes the segment
    at ``seg_index``, one operation submitted at ``submitted_at`` is done
    and its response time is ``completion - submitted_at``.
    """

    seg_index: int
    submitted_at: float

    def __post_init__(self) -> None:
        # negated range checks also reject NaN
        if not 0 <= self.seg_index < math.inf:
            raise WorkloadError(f"seg_index must be >= 0, got {self.seg_index}")
        if not 0.0 <= self.submitted_at < math.inf:
            raise WorkloadError(
                f"submitted_at must be finite and >= 0, got {self.submitted_at}"
            )


@dataclass
class ThreadSpec:
    """One simulated thread: an arrival time plus a straight-line program.

    Parameters
    ----------
    program:
        Non-empty list of segments executed in order.
    arrival_time:
        Simulation time at which the thread becomes runnable.
    working_set_bytes:
        Resident set the thread touches; drives migration cache penalties.
    name:
        Label for traces.
    """

    program: list[Segment]
    arrival_time: float = 0.0
    working_set_bytes: float = 8e6
    name: str = "thread"
    op_marks: list[OpMark] = field(default_factory=list)

    def __post_init__(self) -> None:
        validate_program(self.program)
        if not 0.0 <= self.arrival_time < math.inf:
            raise WorkloadError(
                f"arrival_time must be finite and >= 0, got {self.arrival_time}"
            )
        if not 0.0 <= self.working_set_bytes < math.inf:
            raise WorkloadError(
                "working_set_bytes must be finite and >= 0, "
                f"got {self.working_set_bytes}"
            )
        for mark in self.op_marks:
            if mark.seg_index >= len(self.program):
                raise WorkloadError(
                    f"op mark at segment {mark.seg_index} is out of range for "
                    f"a {len(self.program)}-segment program"
                )

    @property
    def compute_work(self) -> float:
        """Total compute core-seconds of this thread's program."""
        return total_compute_work(self.program)

    @property
    def io_time(self) -> float:
        """Total unloaded IO device time of this thread's program."""
        return total_io_time(self.program)

    @property
    def irq_count(self) -> int:
        """Total IRQs this thread's program raises."""
        return count_irqs(self.program)


@dataclass
class ProcessSpec:
    """One OS-level process (a group of threads sharing a cgroup).

    The paper's unit of resource control is the process: an FFmpeg
    invocation, a PHP worker, the single Cassandra JVM, one MPI job.  The
    cgroup of a containerized platform tracks usage per process group.

    ``weight`` models the CFS group weight (``cpu.shares`` /
    ``cpu.weight``): within one instance, threads of a process with
    weight 2 receive twice the CPU share of threads of a weight-1
    process under contention.  The default 1.0 reproduces the paper's
    setting (all processes equal).
    """

    threads: list[ThreadSpec]
    name: str = "process"
    memory_demand_bytes: float = 64e6
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.threads:
            raise WorkloadError(f"process {self.name!r} must have >= 1 thread")
        if not 0.0 <= self.memory_demand_bytes < math.inf:
            raise WorkloadError("memory_demand_bytes must be finite and >= 0")
        if not 0.0 < self.weight < math.inf:
            raise WorkloadError(
                f"weight must be finite and > 0, got {self.weight}"
            )

    @property
    def n_threads(self) -> int:
        """Number of threads in the process."""
        return len(self.threads)


@dataclass(frozen=True)
class WorkloadProfile:
    """Coarse application characteristics consumed by overhead models.

    Parameters
    ----------
    cpu_duty_cycle:
        Fraction of a thread's wall time spent computing (vs blocked on
        IO) when run unloaded on bare-metal.  1.0 = CPU-bound.
    io_intensity:
        In [0, 1]; qualitative IO volume class used for reporting
        (FFmpeg ~0, WordPress ~0.7, Cassandra ~1).
    description:
        One-line description used in Table I style reports.
    """

    cpu_duty_cycle: float
    io_intensity: float
    description: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_duty_cycle <= 1.0:
            raise WorkloadError("cpu_duty_cycle must be in [0, 1]")
        if not 0.0 <= self.io_intensity <= 1.0:
            raise WorkloadError("io_intensity must be in [0, 1]")


class Workload(abc.ABC):
    """Base class of the application models.

    Subclasses implement :meth:`build` to emit process/thread specs for a
    given instance size, and :meth:`profile` to describe their coarse
    character.  ``metric`` names what the experiment reports: ``makespan``
    (time to finish everything — FFmpeg, MPI) or ``mean_response``
    (mean per-request completion time — WordPress, Cassandra).
    """

    #: Application name as it appears in Table I.
    name: str = "workload"
    #: Version string as it appears in Table I.
    version: str = "0.0"
    #: ``makespan`` or ``mean_response``.
    metric: str = "makespan"

    @abc.abstractmethod
    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        """Emit the process specs for an instance with ``n_cores`` cores.

        ``rng`` supplies the per-run randomness (e.g. per-request service
        time jitter); implementations must draw *all* their randomness from
        it so runs are reproducible.
        """

    @abc.abstractmethod
    def profile(self) -> WorkloadProfile:
        """Coarse characteristics of the application."""

    def validate_cores(self, n_cores: int) -> None:
        """Raise :class:`WorkloadError` for non-positive core counts."""
        if n_cores < 1:
            raise WorkloadError(f"n_cores must be >= 1, got {n_cores}")

    # -- conveniences used by tests and reports ----------------------------

    def total_compute_work(self, n_cores: int, rng: np.random.Generator) -> float:
        """Total compute core-seconds across all processes/threads."""
        return sum(
            t.compute_work for p in self.build(n_cores, rng) for t in p.threads
        )

    def total_irqs(self, n_cores: int, rng: np.random.Generator) -> int:
        """Total IRQ count across all processes/threads."""
        return sum(t.irq_count for p in self.build(n_cores, rng) for t in p.threads)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} v{self.version}>"
