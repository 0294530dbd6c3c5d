"""Apache Cassandra NoSQL workload (ultra IO-bound, Table I row 4).

The paper runs Cassandra 2.2 exclusively on one platform and drives it
with its native ``cassandra-stress`` tool: **1 000 synthesized database
operations submitted within one second from 100 stress threads**, with a
quarter of the operations forced to be writes "to put Cassandra under
extreme pressure" (Section III-B4).  The reported metric is the mean
response time of the 1 000 operations over 20 repetitions.

Model
-----
* one large multi-threaded server process with ``n_threads`` (100) worker
  threads; each worker serves its share of the 1 000 operations
  back-to-back (cassandra-stress keeps 100 operations in flight);
* operations arrive uniformly within the 1-second submission window; a
  worker whose next operation has not arrived yet blocks (modelled as a
  zero-IRQ-cost wait via arrival offsets on the first op and natural
  queueing afterwards);
* a **read** (75 %) costs SSTable/bloom-filter CPU work plus several
  random disk reads (the testbed's RAID1 HDDs make these expensive and
  heavily contended);
* a **write** (25 %) costs commit-log append (sequential write IO) plus
  memtable CPU work;
* the resident demand (JVM heap + page cache working set) exceeds the
  8 GB of the ``Large`` instance, which is what thrashes that
  configuration "out of range" in Fig. 6.

Storage contention is resolved dynamically by the engine using
:class:`repro.hostmodel.storage.StorageModel`; Cassandra supplies a
low-effective-concurrency profile (random cache-missing IO on mirrored
HDDs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.hostmodel.irq import IrqKind
from repro.hostmodel.storage import StorageModel
from repro.units import GIB, MB, MS
from repro.workloads.base import (
    OpMark,
    ProcessSpec,
    ThreadSpec,
    Workload,
    WorkloadProfile,
)
from repro.workloads.segments import ComputeSegment, IoSegment, Segment

__all__ = ["CassandraWorkload"]


@dataclass
class CassandraWorkload(Workload):
    """``cassandra-stress``: 1 000 mixed operations from 100 threads.

    Parameters
    ----------
    n_operations:
        Total synthesized operations (paper: 1 000).
    n_threads:
        Stress worker threads, each simulating one user (paper: 100).
    write_fraction:
        Share of operations forced to be writes (paper: 0.25).
    submission_window:
        Seconds over which the operations are submitted (paper: 1).
    read_cpu_work / write_cpu_work:
        Core-seconds of server CPU per operation (deserialization, bloom
        filters, memtable/compaction bookkeeping).
    read_io_time / write_io_time:
        Unloaded device seconds per operation (random SSTable reads /
        commit-log append).
    memory_demand:
        Resident demand of the server (heap + page-cache working set).
    """

    n_operations: int = 1000
    n_threads: int = 100
    write_fraction: float = 0.25
    submission_window: float = 1.0
    read_cpu_work: float = 110 * MS
    write_cpu_work: float = 70 * MS
    read_io_time: float = 110 * MS
    write_io_time: float = 60 * MS
    memory_demand: float = 12 * GIB
    jitter_sigma: float = 0.18

    name = "Cassandra"
    version = "2.2"
    metric = "mean_response"

    def __post_init__(self) -> None:
        if not 1 <= self.n_operations < math.inf:
            raise WorkloadError("n_operations must be >= 1")
        if not 1 <= self.n_threads < math.inf:
            raise WorkloadError("n_threads must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.submission_window < math.inf:
            raise WorkloadError("submission_window must be finite and >= 0")
        for attr in (
            "read_cpu_work",
            "write_cpu_work",
            "read_io_time",
            "write_io_time",
        ):
            if not 0.0 < getattr(self, attr) < math.inf:
                raise WorkloadError(f"{attr} must be finite and > 0")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise WorkloadError("jitter_sigma must be finite and >= 0")

    def storage_model(self) -> StorageModel:
        """Cassandra's disk profile: random, cache-missing IO on RAID1 HDDs
        sustains little concurrency; writes pay the mirroring penalty."""
        return StorageModel(effective_concurrency=64, write_penalty=1.6)

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.50,
            io_intensity=1.0,
            description="ultra IO-bound NoSQL store; 1 large process, 100 threads",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        n_ops = self.n_operations
        arrivals = np.sort(rng.uniform(0.0, self.submission_window, size=n_ops))
        is_write = rng.random(n_ops) < self.write_fraction
        jit = (
            np.exp(rng.normal(0.0, self.jitter_sigma, size=(n_ops, 2)))
            if self.jitter_sigma > 0
            else np.ones((n_ops, 2))
        )
        # per-operation reads from Python lists: numpy scalar indexing
        # costs several times more and yields the same values
        arrivals, is_write, jit = arrivals.tolist(), is_write.tolist(), jit.tolist()

        # Round-robin ops onto worker threads, as cassandra-stress does with
        # a fixed in-flight population.
        per_thread_ops: list[list[int]] = [[] for _ in range(self.n_threads)]
        for op in range(n_ops):
            per_thread_ops[op % self.n_threads].append(op)

        # segments are frozen, so every operation shares one reply segment
        reply = IoSegment(device_time=1.0 * MS, irqs=1, kind=IrqKind.NET)
        threads: list[ThreadSpec] = []
        for t, ops in enumerate(per_thread_ops):
            if not ops:
                continue
            program: list[Segment] = []
            marks: list[OpMark] = []
            for op in ops:
                if is_write[op]:
                    program.append(
                        ComputeSegment(
                            work=self.write_cpu_work * jit[op][0],
                            mem_intensity=0.35,
                            kernel_share=0.15,
                        )
                    )
                    program.append(
                        IoSegment(
                            device_time=self.write_io_time * jit[op][1],
                            irqs=2,
                            kind=IrqKind.DISK,
                            is_write=True,
                        )
                    )
                else:
                    program.append(
                        ComputeSegment(
                            work=self.read_cpu_work * jit[op][0],
                            mem_intensity=0.35,
                            kernel_share=0.15,
                        )
                    )
                    program.append(
                        IoSegment(
                            device_time=self.read_io_time * jit[op][1],
                            irqs=3,
                            kind=IrqKind.DISK,
                        )
                    )
                # result marshalling back to the stress client
                program.append(reply)
                marks.append(
                    OpMark(
                        seg_index=len(program) - 1,
                        submitted_at=arrivals[op],
                    )
                )
            threads.append(
                ThreadSpec(
                    program=program,
                    arrival_time=arrivals[ops[0]],
                    working_set_bytes=64 * MB,
                    name=f"cass-worker{t}",
                    op_marks=marks,
                )
            )
        return [
            ProcessSpec(
                threads=threads,
                name="cassandra",
                memory_demand_bytes=self.memory_demand,
            )
        ]
