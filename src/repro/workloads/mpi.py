"""Open MPI workloads (HPC / communication-dominated, Table I row 2).

The paper runs two toy MPI applications in which "the communication part
dominates the computation part" (Section III-B2): **MPI Search** (parallel
search for an integer in a large array) and **Prime MPI** (count primes in
a range, with inherent load imbalance because testing larger candidates
costs more).  Both showed the same behaviour; the paper reports MPI
Search.

Model
-----
* one rank (thread) per instance core, all in one MPI job process;
* ``n_rounds`` iterations of ``compute -> barrier -> exchange``;
* total compute work is fixed (strong scaling): per-rank compute shrinks
  as ranks grow;
* per-round exchange latency grows slowly with the rank count
  (tree-structured reduction): ``latency = base * (1 + 0.15 * log2(n))``,
  so the bottleneck shifts from computation to communication at larger
  instances — exactly the shift the paper uses to explain why VM
  execution times approach bare-metal from 2xLarge onward;
* Prime MPI adds a per-rank imbalance ramp, which the barriers turn into
  idle waiting.

Platform-specific communication multipliers (hypervisor-mediated intra-VM
exchange vs host-OS-mediated container exchange) are applied by the
engine, not here — see :meth:`repro.platforms.base.ExecutionPlatform.comm_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.units import MB
from repro.workloads.base import (
    ProcessSpec,
    ThreadSpec,
    Workload,
    WorkloadProfile,
    jittered,
)
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    Segment,
)

__all__ = ["MpiSearchWorkload", "MpiPrimeWorkload"]


@dataclass
class _MpiWorkloadBase(Workload):
    """Shared machinery of the two MPI applications.

    Parameters
    ----------
    total_work:
        Core-seconds of computation split across ranks (strong scaling).
    n_rounds:
        Number of compute/communicate iterations.
    comm_seconds_per_rank:
        Total exchange latency per rank at the 1-rank reference point; the
        per-round latency is this divided by ``n_rounds`` and scaled by the
        log-tree term.
    jitter_sigma:
        Log-normal sigma on per-round compute (data-dependent branch
        costs); barriers amplify this jitter into stragglers.
    """

    total_work: float = 28.0
    n_rounds: int = 40
    comm_seconds_per_rank: float = 4.2
    jitter_sigma: float = 0.04
    #: relative extra work of the most loaded rank vs the least (0 = even)
    imbalance: float = 0.0

    metric = "makespan"

    def __post_init__(self) -> None:
        if not 0.0 < self.total_work < math.inf:
            raise WorkloadError("total_work must be finite and > 0")
        if not 1 <= self.n_rounds < math.inf:
            raise WorkloadError("n_rounds must be >= 1")
        if not 0.0 <= self.comm_seconds_per_rank < math.inf:
            raise WorkloadError(
                "comm_seconds_per_rank must be finite and >= 0"
            )
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise WorkloadError("jitter_sigma must be finite and >= 0")
        if not 0.0 <= self.imbalance < math.inf:
            raise WorkloadError("imbalance must be finite and >= 0")

    # ------------------------------------------------------------------

    def round_latency(self, n_ranks: int) -> float:
        """Per-round exchange latency on bare-metal for ``n_ranks`` ranks."""
        tree = 1.0 + 0.15 * math.log2(max(n_ranks, 1)) if n_ranks > 1 else 1.0
        return self.comm_seconds_per_rank / self.n_rounds * tree

    def rank_weights(self, n_ranks: int) -> np.ndarray:
        """Relative compute weight of each rank (sums to ``n_ranks``)."""
        if n_ranks == 1 or self.imbalance == 0.0:
            return np.ones(n_ranks)
        ramp = 1.0 + self.imbalance * np.arange(n_ranks) / (n_ranks - 1)
        return ramp * n_ranks / ramp.sum()

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.55,
            io_intensity=0.1,
            description="communication-dominated parallel job, 1 rank/core",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        n_ranks = n_cores
        weights = self.rank_weights(n_ranks)
        per_round_lat = self.round_latency(n_ranks)
        base_chunk = self.total_work / n_ranks / self.n_rounds
        works = jittered(
            np.repeat((base_chunk * weights)[:, None], self.n_rounds, axis=1),
            self.jitter_sigma,
            rng,
        )
        # segments are frozen, so every rank shares one barrier per round
        # and one exchange segment
        barriers = [BarrierSegment(barrier_id=r) for r in range(self.n_rounds)]
        exchange = (
            [CommSegment(base_latency=per_round_lat)] if n_ranks > 1 else []
        )

        threads: list[ThreadSpec] = []
        for rank in range(n_ranks):
            program: list[Segment] = []
            for w, barrier in zip(works[rank], barriers):
                program.append(
                    ComputeSegment(work=w, mem_intensity=0.35, kernel_share=0.05)
                )
                program.append(barrier)
                program += exchange
            threads.append(
                ThreadSpec(
                    program=program,
                    working_set_bytes=16 * MB,
                    name=f"{self.name.lower()}-rank{rank}",
                )
            )
        return [
            ProcessSpec(
                threads=threads,
                name=f"{self.name.lower()}-job",
                memory_demand_bytes=n_ranks * 24 * MB,
            )
        ]


@dataclass
class MpiSearchWorkload(_MpiWorkloadBase):
    """``MPI Search``: parallel search of an integer in a large array.

    Evenly balanced ranks; the paper's reported MPI results use this
    application (Section III-B2, Fig. 4).
    """

    name = "MPI Search"
    version = "2.1.1"


@dataclass
class MpiPrimeWorkload(_MpiWorkloadBase):
    """``Prime MPI``: count primes in a range.

    Testing larger candidates costs more, so higher ranks carry more work
    (``imbalance = 0.35`` by default); the paper found its behaviour
    matched MPI Search and did not chart it separately.
    """

    imbalance: float = 0.35

    name = "Prime MPI"
    version = "2.1.1"
