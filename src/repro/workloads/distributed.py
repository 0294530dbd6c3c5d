"""Distributed (multi-node) MPI — the network-overhead extension.

The paper's MPI experiments keep the whole job inside *one* platform
instance, and Section VI names the network as future work.  This module
extends the MPI Search model across several instances ("nodes"): ranks
are split evenly over the nodes, every round synchronizes on a *global*
barrier (spanning the instances), and each round's exchange now has two
parts:

* an **intra-node** part — the same platform-mediated exchange as the
  single-instance model, weighted by the fraction of partners that live
  on the same node (``1/n_nodes``);
* an **inter-node** part — the remote-partner share
  (``1 - 1/n_nodes``) of the exchange, amplified by the calibrated
  inter-node hop penalty (``inter_node_comm_penalty``, NIC/switch
  instead of shared memory), carried as a ``remote`` communication
  segment so the engine applies the node platform's network-stack
  multiplier (virtio-net for VMs, veth for containers) and the message
  serialization time.

Built for the co-located engine: :meth:`DistributedMpiWorkload.build_nodes`
emits one process list per node; :func:`repro.run.distributed.run_mpi_cluster`
deploys them as instances on one (or a conceptual multi-) host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.units import KIB, MB
from repro.workloads.base import ProcessSpec, ThreadSpec, WorkloadProfile, jittered
from repro.workloads.mpi import MpiSearchWorkload
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    Segment,
)

__all__ = ["DistributedMpiWorkload"]


@dataclass
class DistributedMpiWorkload(MpiSearchWorkload):
    """MPI Search spread across ``n_nodes`` instances.

    Parameters (beyond :class:`~repro.workloads.mpi.MpiSearchWorkload`)
    ----------
    n_nodes:
        Number of instances the job spans.  ``build`` still emits a
        single-instance job (n_nodes is then ignored); use
        :meth:`build_nodes` for the distributed layout.
    message_bytes:
        Payload of one rank's per-round inter-node exchange.
    """

    n_nodes: int = 2
    message_bytes: float = 64 * KIB
    #: inter-node hop cost relative to the in-host exchange; defaults to
    #: the calibration's value (kept here so builds need no Calibration)
    inter_node_penalty: float = 6.0

    name = "MPI Search (distributed)"
    version = "2.1.1"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.n_nodes < math.inf:
            raise WorkloadError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 0.0 <= self.message_bytes < math.inf:
            raise WorkloadError("message_bytes must be finite and >= 0")
        if not 0.0 <= self.inter_node_penalty < math.inf:
            raise WorkloadError("inter_node_penalty must be finite and >= 0")

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.55,
            io_intensity=0.1,
            description=(
                f"communication-dominated parallel job over {self.n_nodes} nodes"
            ),
        )

    def build_nodes(
        self, total_ranks: int, rng: np.random.Generator
    ) -> list[list[ProcessSpec]]:
        """Emit one process list per node for ``total_ranks`` ranks.

        Raises
        ------
        WorkloadError
            If the ranks don't divide evenly over the nodes.
        """
        self.validate_cores(total_ranks)
        if total_ranks % self.n_nodes != 0:
            raise WorkloadError(
                f"{total_ranks} ranks do not divide over {self.n_nodes} nodes"
            )
        ranks_per_node = total_ranks // self.n_nodes
        weights = self.rank_weights(total_ranks)
        # the exchange couples ALL ranks; its per-round scale is that of
        # the whole job, split into a local and a remote share
        round_lat = self.round_latency(total_ranks)
        local_fraction = 1.0 / self.n_nodes
        remote_fraction = 1.0 - local_fraction
        base_chunk = self.total_work / total_ranks / self.n_rounds

        works = jittered(
            np.repeat((base_chunk * weights)[:, None], self.n_rounds, axis=1),
            self.jitter_sigma,
            rng,
        )
        # segments are frozen, so every rank shares one barrier per round
        # and one segment per exchange kind
        barriers = [
            BarrierSegment(barrier_id=r, scope="global")
            for r in range(self.n_rounds)
        ]
        exchange: list[Segment] = []
        if total_ranks > 1:
            exchange.append(CommSegment(base_latency=round_lat * local_fraction))
        if self.n_nodes > 1:
            exchange.append(
                CommSegment(
                    base_latency=(
                        round_lat * remote_fraction * self.inter_node_penalty
                    ),
                    remote=True,
                    message_bytes=self.message_bytes,
                )
            )

        nodes: list[list[ProcessSpec]] = []
        rank = 0
        for node in range(self.n_nodes):
            threads: list[ThreadSpec] = []
            for local in range(ranks_per_node):
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
                        name=f"dmpi-n{node}-r{rank}",
                    )
                )
                rank += 1
            nodes.append(
                [
                    ProcessSpec(
                        threads=threads,
                        name=f"dmpi-node{node}",
                        memory_demand_bytes=ranks_per_node * 24 * MB,
                    )
                ]
            )
        return nodes
