"""Thread-program segment primitives.

A simulated thread executes a straight-line *program*: a list of segments.
Four segment kinds cover the behaviours the paper's applications exhibit:

``ComputeSegment``
    ``work`` core-seconds of CPU execution on a reference core.  Carries a
    ``mem_intensity`` in [0, 1] describing how memory-access bound the code
    is: hardware-virtualized platforms slow memory-intensive code more
    (EPT/TLB pressure), which is how the paper's constant VM overhead on
    FFmpeg (heavy pixel traffic) coexists with a milder VM overhead on
    Cassandra's CPU phases.

``IoSegment``
    The thread blocks for a device time, then an IRQ wakes it.  ``irqs``
    counts the kernel interrupts the operation raises (WordPress requests
    raise >= 3 per the paper).

``CommSegment``
    Synchronous message exchange with sibling ranks; the latency depends on
    the platform's communication path (hypervisor-mediated intra-VM
    communication is cheap; containers pay host-OS intervention,
    Section III-B2-ii).

``BarrierSegment``
    All threads of the process carrying the same ``barrier_id`` must arrive
    before any proceeds — this is what amplifies per-thread jitter into
    MPI-level slowdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from repro.errors import WorkloadError
from repro.hostmodel.irq import IrqKind

__all__ = [
    "ComputeSegment",
    "IoSegment",
    "CommSegment",
    "BarrierSegment",
    "Segment",
    "total_compute_work",
    "total_io_time",
    "count_irqs",
    "validate_program",
]


@dataclass(frozen=True)
class ComputeSegment:
    """``work`` core-seconds of CPU execution.

    Parameters
    ----------
    work:
        Core-seconds on a reference core at nominal speed (> 0).
    mem_intensity:
        In [0, 1]; 1.0 means memory-access-bound (large VM slowdown),
        0.0 means register/ALU-bound (minimal VM slowdown).
    kernel_share:
        Fraction of the work executed in kernel mode (syscalls); kernel-mode
        work is further slowed inside guests.
    """

    work: float
    mem_intensity: float = 0.5
    kernel_share: float = 0.0

    def __post_init__(self) -> None:
        # negated range checks: NaN fails every comparison, so it is
        # rejected along with out-of-range values at no extra cost
        if not 0.0 < self.work < math.inf:
            raise WorkloadError(
                f"compute work must be finite and > 0, got {self.work}"
            )
        if not 0.0 <= self.mem_intensity <= 1.0:
            raise WorkloadError(
                f"mem_intensity must be in [0, 1], got {self.mem_intensity}"
            )
        if not 0.0 <= self.kernel_share <= 1.0:
            raise WorkloadError(
                f"kernel_share must be in [0, 1], got {self.kernel_share}"
            )


@dataclass(frozen=True)
class IoSegment:
    """A blocking IO operation followed by an IRQ-driven wake-up.

    Parameters
    ----------
    device_time:
        Seconds the device needs, unloaded (>= 0; 0 models a page-cache hit
        that still takes the syscall/IRQ path).
    irqs:
        Number of interrupts the operation raises (>= 1).
    kind:
        Device class (disk or net).
    is_write:
        Disk writes pay the RAID1 write penalty in the storage model.
    """

    device_time: float
    irqs: int = 1
    kind: IrqKind = IrqKind.DISK
    is_write: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.device_time < math.inf:
            raise WorkloadError(
                f"device_time must be finite and >= 0, got {self.device_time}"
            )
        # `% 1` rejects fractions: the compiled tables store irqs as an
        # int64 count, so 1.5 would be charged as 1.5 IRQs but counted as 1
        if not 1 <= self.irqs < math.inf or self.irqs % 1:
            raise WorkloadError(f"irqs must be an integer >= 1, got {self.irqs}")
        if self.kind is IrqKind.TIMER:
            raise WorkloadError("IoSegment kind must be DISK or NET")


@dataclass(frozen=True)
class CommSegment:
    """A synchronous communication step among the process's ranks.

    Parameters
    ----------
    base_latency:
        Seconds the exchange takes on bare-metal between co-located cores.
    cpu_work:
        Core-seconds of marshalling work charged as compute.
    remote:
        True when the exchange crosses instances (network path): the
        engine then adds the network transfer time through the
        platform's network stack on top of ``base_latency``.
    message_bytes:
        Payload size of a remote exchange (serialization over the link).
    """

    base_latency: float
    cpu_work: float = 0.0
    remote: bool = False
    message_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_latency < math.inf:
            raise WorkloadError(
                f"base_latency must be finite and >= 0, got {self.base_latency}"
            )
        if not 0.0 <= self.cpu_work < math.inf:
            raise WorkloadError(
                f"cpu_work must be finite and >= 0, got {self.cpu_work}"
            )
        if not 0.0 <= self.message_bytes < math.inf:
            raise WorkloadError(
                "message_bytes must be finite and >= 0, "
                f"got {self.message_bytes}"
            )


@dataclass(frozen=True)
class BarrierSegment:
    """Synchronization point: all participating threads must arrive.

    Parameters
    ----------
    barrier_id:
        Identifier; arriving threads rendezvous per scope.
    scope:
        ``"process"`` — threads of the same process sharing the id meet
        (the default, used by multi-threaded applications);
        ``"global"`` — threads of *any* process or instance sharing the
        id meet (used by distributed jobs spanning instances).
    """

    barrier_id: int
    scope: str = "process"

    def __post_init__(self) -> None:
        if not 0 <= self.barrier_id < math.inf or self.barrier_id % 1:
            raise WorkloadError(
                f"barrier_id must be an integer >= 0, got {self.barrier_id}"
            )
        if self.scope not in ("process", "global"):
            raise WorkloadError(
                f"scope must be 'process' or 'global', got {self.scope!r}"
            )


Segment = Union[ComputeSegment, IoSegment, CommSegment, BarrierSegment]
_SEGMENT_TYPES = (ComputeSegment, IoSegment, CommSegment, BarrierSegment)


def total_compute_work(program: Iterable[Segment]) -> float:
    """Sum of compute core-seconds in a program (incl. comm marshalling)."""
    total = 0.0
    for seg in program:
        if isinstance(seg, ComputeSegment):
            total += seg.work
        elif isinstance(seg, CommSegment):
            total += seg.cpu_work
    return total


def total_io_time(program: Iterable[Segment]) -> float:
    """Sum of unloaded device seconds in a program."""
    return sum(
        seg.device_time for seg in program if isinstance(seg, IoSegment)
    )


def count_irqs(program: Iterable[Segment]) -> int:
    """Total interrupts a program raises."""
    return sum(seg.irqs for seg in program if isinstance(seg, IoSegment))


def validate_program(program: list[Segment]) -> None:
    """Raise :class:`WorkloadError` if ``program`` is empty or ill-typed."""
    if not program:
        raise WorkloadError("a thread program must contain at least one segment")
    for seg in program:
        if not isinstance(seg, _SEGMENT_TYPES):
            raise WorkloadError(f"unknown segment type: {type(seg).__name__}")
