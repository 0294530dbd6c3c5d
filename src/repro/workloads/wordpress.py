"""WordPress web workload under JMeter load (IO-bound, Table I row 3).

The paper serves the same WordPress site (PHP + Apache + MySQL) on every
platform and drives it with Apache JMeter configured to fire **1 000
simultaneous web requests**; the reported metric is the mean execution
(response) time of those requests, averaged over 6 evaluations
(Section III-B3).

Model
-----
Each request is a short single-threaded process whose life cycle follows
the paper's IRQ analysis (Section IV-C): *"each web request triggers at
least three Interrupt Requests: to read from the network socket; to fetch
the requested HTML file from disk; and to write back to the network
socket"*:

1. net read  (socket IO, 1 IRQ)
2. PHP execution (compute)
3. disk/database fetch (disk IO, >= 1 IRQ)
4. MySQL + render (compute)
5. net write (socket IO, 1 IRQ)

JMeter itself ran on a dedicated server in the paper, so the load
generator costs nothing here either.  Per-request service times are
jittered log-normally (pages differ); arrivals are simultaneous with a
tiny connection-accept stagger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.hostmodel.irq import IrqKind
from repro.units import MB, MS
from repro.workloads.base import (
    OpMark,
    ProcessSpec,
    ThreadSpec,
    Workload,
    WorkloadProfile,
)
from repro.workloads.segments import ComputeSegment, IoSegment, Segment

__all__ = ["WordPressWorkload"]


@dataclass
class WordPressWorkload(Workload):
    """1 000 simultaneous requests against one WordPress site.

    Parameters
    ----------
    n_requests:
        Concurrent requests JMeter fires (paper: 1 000).
    php_work:
        Core-seconds of PHP/Apache work per request.
    db_work:
        Core-seconds of MySQL work per request.
    net_io_time, disk_io_time:
        Unloaded device times of the socket and disk/database operations.
    accept_stagger:
        Total window over which the kernel accepts the "simultaneous"
        connections (listen-queue drain).
    jitter_sigma:
        Log-normal sigma of per-request service-time jitter.
    """

    n_requests: int = 1000
    php_work: float = 3.5 * MS
    db_work: float = 2.0 * MS
    net_io_time: float = 2.0 * MS
    disk_io_time: float = 35.0 * MS
    accept_stagger: float = 300 * MS
    jitter_sigma: float = 0.20

    name = "WordPress"
    version = "5.3.2"
    metric = "mean_response"

    def __post_init__(self) -> None:
        if not 1 <= self.n_requests < math.inf:
            raise WorkloadError("n_requests must be >= 1")
        for attr in ("php_work", "db_work"):
            if not 0.0 < getattr(self, attr) < math.inf:
                raise WorkloadError(f"{attr} must be finite and > 0")
        for attr in ("net_io_time", "disk_io_time", "accept_stagger"):
            if not 0.0 <= getattr(self, attr) < math.inf:
                raise WorkloadError(f"{attr} must be finite and >= 0")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise WorkloadError("jitter_sigma must be finite and >= 0")

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.35,
            io_intensity=0.7,
            description="IO-bound web serving; many short processes, >=3 IRQs each",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        arrivals = rng.uniform(0.0, self.accept_stagger, size=self.n_requests)
        arrivals.sort()
        jit = (
            np.exp(rng.normal(0.0, self.jitter_sigma, size=(self.n_requests, 4)))
            if self.jitter_sigma > 0
            else np.ones((self.n_requests, 4))
        )
        # per-request reads from Python lists: numpy scalar indexing costs
        # several times more and yields the same floats
        arrivals, jit = arrivals.tolist(), jit.tolist()
        # segments are frozen, so every request shares one reply segment
        reply = IoSegment(device_time=self.net_io_time, irqs=1, kind=IrqKind.NET)
        processes: list[ProcessSpec] = []
        for i in range(self.n_requests):
            program: list[Segment] = [
                IoSegment(
                    device_time=self.net_io_time * jit[i][0],
                    irqs=1,
                    kind=IrqKind.NET,
                ),
                ComputeSegment(
                    work=self.php_work * jit[i][1],
                    mem_intensity=0.30,
                    kernel_share=0.20,
                ),
                IoSegment(
                    device_time=self.disk_io_time * jit[i][2],
                    irqs=2,
                    kind=IrqKind.DISK,
                ),
                ComputeSegment(
                    work=self.db_work * jit[i][3],
                    mem_intensity=0.30,
                    kernel_share=0.15,
                ),
                reply,
            ]
            processes.append(
                ProcessSpec(
                    threads=[
                        ThreadSpec(
                            program=program,
                            arrival_time=arrivals[i],
                            working_set_bytes=4 * MB,
                            name=f"wp-req{i}",
                            op_marks=[
                                OpMark(
                                    seg_index=len(program) - 1,
                                    submitted_at=arrivals[i],
                                )
                            ],
                        )
                    ],
                    name=f"wp-req{i}",
                    # Apache/PHP workers share text and COW pages; the
                    # unique resident increment per request is small.
                    memory_demand_bytes=6 * MB,
                )
            )
        return processes
