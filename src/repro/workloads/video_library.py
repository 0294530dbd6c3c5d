"""Heterogeneous video library — relaxing the paper's single-video choice.

Section III-B1: *"The reason that we examine one video segment is to
concentrate on the overhead resulted from the execution platform and
remove any uncertainty in the analysis, caused by the video
characteristics."*  The authors' own prior work (Li et al., TPDS'18/'19,
cited as [36], [37]) characterizes how strongly transcoding time varies
with content.  This module reintroduces that heterogeneity so the
findings can be checked *beyond* the controlled single-clip setting:

* :class:`VideoSpec` — one clip: duration and a content-complexity
  multiplier on the codec work (high-motion sports vs static slides);
* :class:`VideoLibrary` — a synthesized corpus with log-normally
  distributed complexity (the shape reported in the paper's citations);
* :class:`VideoBatchWorkload` — transcode the whole corpus on one
  instance with a bounded number of concurrent FFmpeg processes (a batch
  transcoding farm), reporting the batch makespan.

The accompanying tests confirm the paper's best practices survive
heterogeneity: pinned CN still tracks bare-metal, the VM tax stays ~2x,
and multitasking degree still drives the vanilla-CN overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.hostmodel.irq import IrqKind
from repro.units import MB
from repro.workloads.base import ProcessSpec, ThreadSpec, Workload, WorkloadProfile
from repro.workloads.segments import (
    BarrierSegment,
    ComputeSegment,
    IoSegment,
    Segment,
)

__all__ = ["VideoSpec", "VideoLibrary", "VideoBatchWorkload"]


@dataclass(frozen=True)
class VideoSpec:
    """One source clip.

    Parameters
    ----------
    duration_seconds:
        Clip length.
    complexity:
        Codec-work multiplier relative to the reference clip (1.0 = the
        paper's Big Buck Bunny segment).
    size_bytes:
        Source file size (drives the read IO).
    """

    duration_seconds: float
    complexity: float = 1.0
    size_bytes: float = 30 * MB

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_seconds < math.inf:
            raise WorkloadError("duration_seconds must be finite and > 0")
        if not 0.0 < self.complexity < math.inf:
            raise WorkloadError("complexity must be finite and > 0")
        if not 0.0 < self.size_bytes < math.inf:
            raise WorkloadError("size_bytes must be finite and > 0")

    def codec_work(self, work_per_video_second: float) -> float:
        """Core-seconds to transcode this clip."""
        return self.duration_seconds * self.complexity * work_per_video_second


@dataclass
class VideoLibrary:
    """A synthesized corpus of clips with log-normal complexity.

    Parameters
    ----------
    n_videos:
        Corpus size.
    mean_duration:
        Mean clip duration (durations drawn uniformly in ±50 %).
    complexity_sigma:
        Log-normal sigma of the content-complexity multiplier (the
        TPDS'19 characterization found heavy variability; 0.4-0.6 is a
        realistic band).
    seed:
        Corpus seed: the same library can be replayed across platforms.
    """

    n_videos: int = 24
    mean_duration: float = 10.0
    complexity_sigma: float = 0.5
    seed: int = 2020

    def __post_init__(self) -> None:
        if not 1 <= self.n_videos < math.inf:
            raise WorkloadError("n_videos must be >= 1")
        if not 0.0 < self.mean_duration < math.inf:
            raise WorkloadError("mean_duration must be finite and > 0")
        if not 0.0 <= self.complexity_sigma < math.inf:
            raise WorkloadError("complexity_sigma must be finite and >= 0")

    def videos(self) -> list[VideoSpec]:
        """Materialize the corpus (deterministic per seed)."""
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(self.n_videos):
            duration = float(
                rng.uniform(0.5 * self.mean_duration, 1.5 * self.mean_duration)
            )
            complexity = (
                float(np.exp(rng.normal(0.0, self.complexity_sigma)))
                if self.complexity_sigma > 0
                else 1.0
            )
            size = 1 * MB * duration * complexity
            out.append(
                VideoSpec(
                    duration_seconds=duration,
                    complexity=complexity,
                    size_bytes=size,
                )
            )
        return out

    def total_codec_work(self, work_per_video_second: float = 2.5) -> float:
        """Total core-seconds to transcode the corpus."""
        return sum(v.codec_work(work_per_video_second) for v in self.videos())


@dataclass
class VideoBatchWorkload(Workload):
    """Transcode a whole library on one instance (a transcoding farm).

    Parameters
    ----------
    library:
        The clip corpus.
    concurrency:
        Simultaneous FFmpeg processes (a batch queue feeds the next clip
        as soon as a slot frees — approximated by staggered arrivals of
        waves).
    work_per_video_second / threads_per_job:
        Codec work scale and per-job thread count (the per-job pool is
        small because the farm parallelizes across clips).
    """

    library: VideoLibrary = field(default_factory=VideoLibrary)
    concurrency: int = 4
    work_per_video_second: float = 2.5
    threads_per_job: int = 4
    jitter_sigma: float = 0.03

    name = "FFmpeg batch"
    version = "3.4.6"
    metric = "makespan"

    def __post_init__(self) -> None:
        if not 1 <= self.concurrency < math.inf:
            raise WorkloadError("concurrency must be >= 1")
        if not 0.0 < self.work_per_video_second < math.inf:
            raise WorkloadError("work_per_video_second must be finite and > 0")
        if not 1 <= self.threads_per_job < math.inf:
            raise WorkloadError("threads_per_job must be >= 1")

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.95,
            io_intensity=0.1,
            description="batch transcoding farm over a heterogeneous corpus",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        videos = self.library.videos()
        # longest-processing-time-first order keeps the batch tail short —
        # what a real farm scheduler does
        videos.sort(
            key=lambda v: v.codec_work(self.work_per_video_second), reverse=True
        )
        # wave w starts when wave w-1's slots are (approximately) freeing:
        # stagger by the mean job time of the previous wave
        processes: list[ProcessSpec] = []
        arrival = 0.0
        for wave_start in range(0, len(videos), self.concurrency):
            wave = videos[wave_start : wave_start + self.concurrency]
            for vidx, video in enumerate(wave):
                processes.append(
                    self._job(
                        wave_start + vidx, video, arrival, n_cores, rng
                    )
                )
            mean_work = float(
                np.mean([v.codec_work(self.work_per_video_second) for v in wave])
            )
            arrival += mean_work / max(
                1, min(self.threads_per_job, n_cores)
            )
        return processes

    def _job(
        self,
        index: int,
        video: VideoSpec,
        arrival: float,
        n_cores: int,
        rng: np.random.Generator,
    ) -> ProcessSpec:
        nt = max(1, min(self.threads_per_job, n_cores))
        work = video.codec_work(self.work_per_video_second)
        chunks = 4
        bar_base = index * (chunks + 1)
        threads: list[ThreadSpec] = []
        for t in range(nt):
            program: list[Segment] = []
            if t == 0:
                program.append(
                    IoSegment(
                        device_time=video.size_bytes / (150 * MB),
                        irqs=2,
                        kind=IrqKind.DISK,
                    )
                )
            for c in range(chunks):
                jitter = (
                    float(np.exp(rng.normal(0.0, self.jitter_sigma)))
                    if self.jitter_sigma > 0
                    else 1.0
                )
                program.append(
                    ComputeSegment(
                        work=work / nt / chunks * jitter,
                        mem_intensity=0.95,
                        kernel_share=0.02,
                    )
                )
                program.append(BarrierSegment(barrier_id=bar_base + c))
            threads.append(
                ThreadSpec(
                    program=program,
                    arrival_time=arrival,
                    working_set_bytes=50 * MB / nt + 8 * MB,
                    name=f"batch-v{index}-t{t}",
                )
            )
        return ProcessSpec(
            threads=threads,
            name=f"batch-v{index}",
            memory_demand_bytes=50 * MB + video.size_bytes,
        )
