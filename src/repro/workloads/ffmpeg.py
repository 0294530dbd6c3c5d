"""FFmpeg video-transcoding workload (CPU-bound, Table I row 1).

The paper transcodes one free-licensed 30 MB HD video segment (Big Buck
Bunny) from AVC (H.264) to HEVC (H.265) — "the most CPU-intensive
transcoding operation" — with a small (~50 MB) memory footprint.  FFmpeg
is multi-threaded and "can utilize up to 16 CPU cores", so instances
larger than 4xLarge are never used for it (Section III-B1).

Model
-----
* ``min(n_cores, MAX_THREADS)`` worker threads;
* total codec work ``work_core_seconds`` split Amdahl-style: a serial
  share executed by thread 0 (bitstream muxing), the rest divided evenly;
* the parallel work is chopped into ``n_sync_chunks`` chunks separated by
  barriers, modelling the frame/GOP synchronization of the encoder's
  thread pool — this is what exposes the workload to scheduler jitter;
* one read IO up front and one write IO at the end (30 MB in, ~20 MB out);
* compute is memory-intensive (``mem_intensity = 0.95``): pixel planes
  stream through the cache hierarchy, which is why hardware
  virtualization taxes it heavily (the paper's constant ~2x VM overhead).

For the multitasking experiment of Fig. 8, :meth:`FfmpegWorkload.split`
produces N independent transcode processes over 1/N-duration clips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from repro.workloads.segments import (
    BarrierSegment,
    ComputeSegment,
    IoSegment,
    Segment,
)

__all__ = ["FfmpegWorkload"]

#: FFmpeg's effective thread-pool limit for one encode (Section III-B1).
MAX_THREADS = 16


@dataclass
class FfmpegWorkload(Workload):
    """AVC -> HEVC transcode of one HD video segment.

    Parameters
    ----------
    video_seconds:
        Source duration; work scales linearly with it.  The paper's clip is
        30 s (the Fig. 8 experiment splits it into 30 x 1 s clips).
    work_per_video_second:
        Core-seconds of codec work per second of source video.  The default
        calibrates bare-metal times to the paper's Fig. 3 range
        (~40 s on 2 cores down to ~8 s on 16).
    serial_fraction:
        Amdahl serial share (demux/mux and rate control).
    n_sync_chunks:
        Number of GOP-level synchronization points in the encode.
    n_parallel_tasks:
        Number of independent transcode processes (1 = Fig. 3 setup;
        use :meth:`split` for the Fig. 8 setup).
    jitter_sigma:
        Log-normal sigma of per-chunk work jitter (codec work varies with
        scene content).
    """

    video_seconds: float = 30.0
    work_per_video_second: float = 2.5
    serial_fraction: float = 0.05
    n_sync_chunks: int = 20
    n_parallel_tasks: int = 1
    input_bytes: float = 30 * MB
    output_bytes: float = 20 * MB
    jitter_sigma: float = 0.03

    name = "FFmpeg"
    version = "3.4.6"
    metric = "makespan"

    def __post_init__(self) -> None:
        if not 0.0 < self.video_seconds < math.inf:
            raise WorkloadError("video_seconds must be finite and > 0")
        if not 0.0 < self.work_per_video_second < math.inf:
            raise WorkloadError("work_per_video_second must be finite and > 0")
        if not 0.0 <= self.serial_fraction < 1.0:
            raise WorkloadError("serial_fraction must be in [0, 1)")
        if not 1 <= self.n_sync_chunks < math.inf:
            raise WorkloadError("n_sync_chunks must be >= 1")
        if not 1 <= self.n_parallel_tasks < math.inf:
            raise WorkloadError("n_parallel_tasks must be >= 1")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise WorkloadError("jitter_sigma must be finite and >= 0")

    # ------------------------------------------------------------------

    @property
    def total_work(self) -> float:
        """Total codec core-seconds for the full source video."""
        return self.video_seconds * self.work_per_video_second

    def split(self, n_clips: int) -> "FfmpegWorkload":
        """Return the Fig.-8 variant: ``n_clips`` parallel transcodes of
        ``video_seconds / n_clips``-second clips.

        ``video_seconds`` still describes the *total* source footage; the
        build divides the codec work evenly across the parallel tasks, so
        the total work is identical to the unsplit transcode.
        """
        if n_clips < 1:
            raise WorkloadError(f"n_clips must be >= 1, got {n_clips}")
        return replace(self, n_parallel_tasks=n_clips)

    def n_threads(self, n_cores: int) -> int:
        """Worker threads FFmpeg spawns on an ``n_cores`` instance.

        Codec thread pools oversubscribe slightly (frame threads plus
        lookahead/mux helpers, ~1.5x the core count) up to the encoder's
        16-thread ceiling.
        """
        return max(1, min(-(-3 * n_cores // 2), MAX_THREADS))

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.98,
            io_intensity=0.05,
            description="CPU-bound codec transcode (AVC->HEVC), <=16 threads",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        per_task_work = self.total_work / self.n_parallel_tasks
        return [
            self._build_one(task, n_cores, per_task_work, rng)
            for task in range(self.n_parallel_tasks)
        ]

    # ------------------------------------------------------------------

    def _build_one(
        self,
        task_index: int,
        n_cores: int,
        work: float,
        rng: np.random.Generator,
    ) -> ProcessSpec:
        nt = self.n_threads(n_cores)
        serial = work * self.serial_fraction
        parallel_per_thread = work * (1.0 - self.serial_fraction) / nt
        chunk = parallel_per_thread / self.n_sync_chunks
        # Barrier ids are namespaced per task so the 30 parallel clips of
        # Fig. 8 do not rendezvous with each other.
        bar_base = task_index * (self.n_sync_chunks + 1)

        works = jittered(
            np.full((nt, self.n_sync_chunks), chunk), self.jitter_sigma, rng
        )
        # Thread 0 also carries the serial share, spread across the chunks
        # (rate control runs throughout).
        works[0] = [w + serial / self.n_sync_chunks for w in works[0]]
        # segments are frozen, so all threads share one barrier per chunk
        barriers = [
            BarrierSegment(barrier_id=bar_base + c)
            for c in range(self.n_sync_chunks)
        ]

        threads: list[ThreadSpec] = []
        for t in range(nt):
            program: list[Segment] = []
            if t == 0:
                # Thread 0 reads the input.
                program.append(
                    IoSegment(
                        device_time=self._read_time(),
                        irqs=2,
                        kind=IrqKind.DISK,
                    )
                )
            for w, barrier in zip(works[t], barriers):
                program.append(
                    ComputeSegment(work=w, mem_intensity=0.95, kernel_share=0.02)
                )
                program.append(barrier)
            if t == 0:
                program.append(
                    IoSegment(
                        device_time=self._write_time(),
                        irqs=2,
                        kind=IrqKind.DISK,
                        is_write=True,
                    )
                )
            threads.append(
                ThreadSpec(
                    program=program,
                    arrival_time=0.0,
                    working_set_bytes=50 * MB / nt + 8 * MB,
                    name=f"ffmpeg-{task_index}-w{t}",
                )
            )
        return ProcessSpec(
            threads=threads,
            name=f"ffmpeg-{task_index}",
            memory_demand_bytes=50 * MB + self.input_bytes,
        )

    def _read_time(self) -> float:
        """Seconds to read the input clip at ~150 MB/s sequential HDD rate."""
        return (self.input_bytes / self.n_parallel_tasks) / (150 * MB)

    def _write_time(self) -> float:
        """Seconds to write the output clip."""
        return (self.output_bytes / self.n_parallel_tasks) / (150 * MB)
