"""Builders and the program compiler against their per-segment references.

The workload builders draw all of a build's jitter in one vectorized
call and share frozen segments between threads; the compiler fills its
columns with numpy, kind by kind.  Both must reproduce, bit for bit, the
straightforward per-segment code they replace.  That code is kept here,
test-local, as the oracle:

* ``_scalar_*`` builders draw one scalar ``rng.normal`` per compute
  segment and build every segment afresh; the programs must compare
  equal (dataclass ``==`` and exact ``repr``) and leave the generator in
  the same state.
* ``_reference_compile`` writes each row through an ``isinstance``
  chain; every column must match bytewise, and the interned barrier keys
  and participant counts must match in value and order.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instance_type, make_platform, r830_host
from repro.engine.compile import (
    KIND_BARRIER,
    KIND_COMM,
    KIND_COMPUTE,
    KIND_IO,
    CompiledPrograms,
    compile_programs,
)
from repro.engine.simulator import InstanceDeployment
from repro.hostmodel.irq import IrqKind
from repro.hostmodel.network import NetworkModel
from repro.hostmodel.storage import StorageModel
from repro.run.calibration import Calibration
from repro.sched.accounting import OverheadModel
from repro.units import MB
from repro.workloads import (
    CassandraWorkload,
    FfmpegWorkload,
    MpiPrimeWorkload,
    MpiSearchWorkload,
    SyntheticWorkload,
    WordPressWorkload,
)
from repro.workloads.base import ProcessSpec, ThreadSpec
from repro.workloads.distributed import DistributedMpiWorkload
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    IoSegment,
)

# ---------------------------------------------------------------------------
# scalar-draw reference builders


def _scalar_jitter(sigma: float, rng: np.random.Generator) -> float:
    if sigma == 0:
        return 1.0
    return float(np.exp(rng.normal(0.0, sigma)))


def _scalar_mpi(wl, n_cores: int, rng: np.random.Generator) -> list:
    n_ranks = n_cores
    weights = wl.rank_weights(n_ranks)
    per_round_lat = wl.round_latency(n_ranks)
    base_chunk = wl.total_work / n_ranks / wl.n_rounds
    threads = []
    for rank in range(n_ranks):
        program = []
        for r in range(wl.n_rounds):
            w = (
                base_chunk
                * float(weights[rank])
                * _scalar_jitter(wl.jitter_sigma, rng)
            )
            program.append(
                ComputeSegment(work=w, mem_intensity=0.35, kernel_share=0.05)
            )
            program.append(BarrierSegment(barrier_id=r))
            if n_ranks > 1:
                program.append(CommSegment(base_latency=per_round_lat))
        threads.append(
            ThreadSpec(
                program=program,
                working_set_bytes=16 * MB,
                name=f"{wl.name.lower()}-rank{rank}",
            )
        )
    return [
        ProcessSpec(
            threads=threads,
            name=f"{wl.name.lower()}-job",
            memory_demand_bytes=n_ranks * 24 * MB,
        )
    ]


def _scalar_ffmpeg(wl, n_cores: int, rng: np.random.Generator) -> list:
    work = wl.total_work / wl.n_parallel_tasks
    out = []
    for task_index in range(wl.n_parallel_tasks):
        nt = wl.n_threads(n_cores)
        serial = work * wl.serial_fraction
        chunk = work * (1.0 - wl.serial_fraction) / nt / wl.n_sync_chunks
        bar_base = task_index * (wl.n_sync_chunks + 1)
        threads = []
        for t in range(nt):
            program = []
            if t == 0:
                program.append(
                    IoSegment(
                        device_time=wl._read_time(), irqs=2, kind=IrqKind.DISK
                    )
                )
            for c in range(wl.n_sync_chunks):
                w = chunk * _scalar_jitter(wl.jitter_sigma, rng)
                if t == 0:
                    w += serial / wl.n_sync_chunks
                program.append(
                    ComputeSegment(work=w, mem_intensity=0.95, kernel_share=0.02)
                )
                program.append(BarrierSegment(barrier_id=bar_base + c))
            if t == 0:
                program.append(
                    IoSegment(
                        device_time=wl._write_time(),
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
        out.append(
            ProcessSpec(
                threads=threads,
                name=f"ffmpeg-{task_index}",
                memory_demand_bytes=50 * MB + wl.input_bytes,
            )
        )
    return out


def _scalar_dmpi(wl, total_ranks: int, rng: np.random.Generator) -> list:
    ranks_per_node = total_ranks // wl.n_nodes
    weights = wl.rank_weights(total_ranks)
    round_lat = wl.round_latency(total_ranks)
    local_fraction = 1.0 / wl.n_nodes
    remote_fraction = 1.0 - local_fraction
    base_chunk = wl.total_work / total_ranks / wl.n_rounds
    nodes = []
    rank = 0
    for node in range(wl.n_nodes):
        threads = []
        for _ in range(ranks_per_node):
            program = []
            for r in range(wl.n_rounds):
                w = (
                    base_chunk
                    * float(weights[rank])
                    * _scalar_jitter(wl.jitter_sigma, rng)
                )
                program.append(
                    ComputeSegment(work=w, mem_intensity=0.35, kernel_share=0.05)
                )
                program.append(BarrierSegment(barrier_id=r, scope="global"))
                if total_ranks > 1:
                    program.append(
                        CommSegment(base_latency=round_lat * local_fraction)
                    )
                if wl.n_nodes > 1:
                    program.append(
                        CommSegment(
                            base_latency=(
                                round_lat * remote_fraction * wl.inter_node_penalty
                            ),
                            remote=True,
                            message_bytes=wl.message_bytes,
                        )
                    )
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


def _scalar_synthetic(wl, rng: np.random.Generator) -> list:
    io = (
        wl.compute_per_phase * wl.io_fraction / (1.0 - wl.io_fraction)
        if wl.io_fraction > 0
        else 0.0
    )
    processes = []
    for p in range(wl.n_processes):
        threads = []
        for t in range(wl.threads_per_process):
            program = []
            for _ in range(wl.phases):
                w = wl.compute_per_phase * _scalar_jitter(wl.jitter_sigma, rng)
                program.append(
                    ComputeSegment(work=w, mem_intensity=wl.mem_intensity)
                )
                if io > 0:
                    d = io * _scalar_jitter(wl.jitter_sigma, rng)
                    program.append(
                        IoSegment(device_time=d, irqs=1, kind=IrqKind.DISK)
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
                threads=threads, name=f"syn-p{p}", memory_demand_bytes=32 * MB
            )
        )
    return processes


def _assert_same_build(build, reference, seed: int) -> None:
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = build(rng)
    want = reference(ref_rng)
    assert got == want
    assert repr(got) == repr(want)  # exact floats, not just ==
    assert rng.bit_generator.state == ref_rng.bit_generator.state


_SEEDS = (0, 7, 1592598560)


class TestScalarDrawBuilders:
    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("cores", [1, 2, 3, 8, 16, 32])
    @pytest.mark.parametrize("cls", [MpiSearchWorkload, MpiPrimeWorkload])
    @pytest.mark.parametrize("sigma", [0.0, None])
    def test_mpi(self, cls, cores, seed, sigma):
        wl = cls() if sigma is None else cls(jitter_sigma=sigma)
        _assert_same_build(
            lambda rng: wl.build(cores, rng),
            lambda rng: _scalar_mpi(wl, cores, rng),
            seed,
        )

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("cores", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("clips", [1, 30])
    @pytest.mark.parametrize("sigma", [0.0, None])
    def test_ffmpeg(self, clips, cores, seed, sigma):
        wl = FfmpegWorkload() if sigma is None else FfmpegWorkload(
            jitter_sigma=sigma
        )
        wl = wl.split(clips)
        _assert_same_build(
            lambda rng: wl.build(cores, rng),
            lambda rng: _scalar_ffmpeg(wl, cores, rng),
            seed,
        )

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize(
        "nodes, ranks", [(1, 1), (1, 4), (2, 2), (2, 8), (4, 16)]
    )
    @pytest.mark.parametrize("sigma", [0.0, None])
    def test_distributed(self, nodes, ranks, seed, sigma):
        kw = {} if sigma is None else {"jitter_sigma": sigma}
        wl = DistributedMpiWorkload(n_nodes=nodes, **kw)
        _assert_same_build(
            lambda rng: wl.build_nodes(ranks, rng),
            lambda rng: _scalar_dmpi(wl, ranks, rng),
            seed,
        )

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("io_fraction", [0.0, 0.4])
    @pytest.mark.parametrize("sigma", [0.0, None])
    def test_synthetic(self, io_fraction, seed, sigma):
        kw = {} if sigma is None else {"jitter_sigma": sigma}
        wl = SyntheticWorkload(
            n_processes=3, phases=7, io_fraction=io_fraction, **kw
        )
        _assert_same_build(
            lambda rng: wl.build(4, rng),
            lambda rng: _scalar_synthetic(wl, rng),
            seed,
        )

    def test_zero_sigma_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        MpiSearchWorkload(jitter_sigma=0.0).build(8, rng)
        FfmpegWorkload(jitter_sigma=0.0).split(30).build(4, rng)
        DistributedMpiWorkload(jitter_sigma=0.0).build_nodes(8, rng)
        assert rng.bit_generator.state == before

    def test_frozen_segments_are_shared(self):
        (proc,) = MpiSearchWorkload().build(4, np.random.default_rng(0))
        a, b = proc.threads[0].program, proc.threads[1].program
        assert a[1] is b[1] and a[2] is b[2]  # barrier and exchange
        assert a[0] is not b[0]  # jittered compute stays per rank
        ffmpeg = FfmpegWorkload().build(4, np.random.default_rng(0))[0]
        assert ffmpeg.threads[0].program[2] is ffmpeg.threads[1].program[1]


# ---------------------------------------------------------------------------
# per-row reference compiler


def _reference_compile(
    programs, proc_of, group_of, op_marks, deployments, *, storage, network,
    g_wake_extra, g_p_wake, g_irq_latency, g_io_factor, g_thrash,
    g_comm_factor, g_net_factor,
) -> CompiledPrograms:
    n = len(programs)
    seg_base = np.zeros(n + 1, dtype=np.int64)
    for tid, prog in enumerate(programs):
        seg_base[tid + 1] = seg_base[tid] + len(prog)
    total = int(seg_base[n])
    kind = np.zeros(total, dtype=np.int8)
    work, mem, pp = np.zeros(total), np.zeros(total), np.zeros(total)
    io_disk = np.zeros(total, dtype=bool)
    io_base, io_raw = np.zeros(total), np.zeros(total)
    io_write = np.zeros(total, dtype=bool)
    io_net_dur, io_scale, io_fixed = (np.zeros(total) for _ in range(3))
    io_irqs = np.zeros(total, dtype=np.int64)
    io_extra, io_wakemig, comm_dur = (np.zeros(total) for _ in range(3))
    bar_key = np.full(total, -1, dtype=np.int32)
    mark_mask = np.zeros(total, dtype=bool)
    mark_submit = np.zeros(total)
    bar_keys: list = []
    bar_index: dict = {}
    participants: dict = {}
    pp_cache: dict = {}
    write_penalty = storage.write_penalty
    for tid, prog in enumerate(programs):
        g = group_of[tid]
        pidx = proc_of[tid]
        platform = deployments[g].overhead.platform
        calib = deployments[g].overhead.calib
        base = int(seg_base[tid])
        marks = op_marks.get(tid)
        if marks:
            for seg_index, submitted in marks.items():
                if 0 <= seg_index < len(prog):
                    mark_mask[base + seg_index] = True
                    mark_submit[base + seg_index] = submitted
        for p, seg in enumerate(prog):
            row = base + p
            if isinstance(seg, ComputeSegment):
                kind[row] = KIND_COMPUTE
                work[row] = seg.work
                mem[row] = seg.mem_intensity
                key = (g, seg.mem_intensity, seg.kernel_share)
                penalty = pp_cache.get(key)
                if penalty is None:
                    penalty = platform.compute_penalty(
                        calib, seg.mem_intensity, seg.kernel_share
                    )
                    pp_cache[key] = penalty
                pp[row] = penalty
            elif isinstance(seg, IoSegment):
                kind[row] = KIND_IO
                disk = seg.kind is IrqKind.DISK
                io_disk[row] = disk
                scale = g_io_factor[g] * g_thrash[g]
                fixed = seg.irqs * g_irq_latency[g]
                io_scale[row] = scale
                io_fixed[row] = fixed
                io_irqs[row] = seg.irqs
                io_extra[row] = seg.irqs * g_wake_extra[g]
                io_wakemig[row] = seg.irqs * g_p_wake[g]
                if disk:
                    io_base[row] = seg.device_time * (
                        write_penalty if seg.is_write else 1.0
                    )
                    io_raw[row] = seg.device_time
                    io_write[row] = seg.is_write
                else:
                    device = seg.device_time
                    device *= scale
                    io_net_dur[row] = device + fixed
            elif isinstance(seg, CommSegment):
                kind[row] = KIND_COMM
                if seg.remote:
                    comm_dur[row] = (
                        seg.base_latency * g_net_factor[g]
                        + seg.cpu_work
                        + network.transfer_time(
                            seg.message_bytes, stack_factor=g_net_factor[g]
                        )
                    )
                else:
                    comm_dur[row] = (
                        seg.base_latency * g_comm_factor[g] + seg.cpu_work
                    )
            else:
                kind[row] = KIND_BARRIER
                key = (-1 if seg.scope == "global" else pidx, seg.barrier_id)
                idx = bar_index.get(key)
                if idx is None:
                    idx = len(bar_keys)
                    bar_index[key] = idx
                    bar_keys.append(key)
                bar_key[row] = idx
                participants[key] = participants.get(key, 0) + 1
    return CompiledPrograms(
        n_threads=n, n_segments=total, seg_base=seg_base,
        seg_count=np.diff(seg_base), kind=kind, work=work, mem=mem, pp=pp,
        io_disk=io_disk, io_base=io_base, io_raw=io_raw, io_write=io_write,
        io_net_dur=io_net_dur, io_scale=io_scale, io_fixed=io_fixed,
        io_irqs=io_irqs, io_extra=io_extra, io_wakemig=io_wakemig,
        comm_dur=comm_dur, bar_key=bar_key, bar_keys=bar_keys,
        mark_mask=mark_mask, mark_submit=mark_submit,
        barrier_participants=participants,
    )


def _assert_same_tables(got: CompiledPrograms, want: CompiledPrograms) -> None:
    for f in fields(CompiledPrograms):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert a.shape == b.shape, f.name
            assert a.view(np.uint8).tobytes() == b.view(np.uint8).tobytes(), (
                f.name
            )
        elif f.name == "barrier_participants":
            assert list(a.items()) == list(b.items())
        else:
            assert a == b, f.name


_PLATFORMS = [
    ("BM", "vanilla"), ("CN", "vanilla"), ("CN", "pinned"),
    ("VM", "vanilla"), ("VM", "pinned"), ("VMCN", "vanilla"),
]


def _deployment(kind: str, mode: str, cores: int = 4) -> InstanceDeployment:
    inst = instance_type({2: "Large", 4: "xLarge", 8: "2xLarge"}[cores])
    overhead = OverheadModel(
        r830_host(), make_platform(kind, inst, mode), Calibration()
    )
    dummy = ProcessSpec(threads=[ThreadSpec(program=[ComputeSegment(1.0)])])
    return InstanceDeployment(
        processes=[dummy], capacity=float(cores), overhead=overhead
    )


class _SlowDisk(StorageModel):
    """A storage subclass, as custom-storage runs use."""


def _args(deployments, rng: np.random.Generator, storage, network) -> dict:
    """Per-group overhead scalars with awkward (non-round) values."""
    k = len(deployments)

    def draw(lo: float, hi: float) -> np.ndarray:
        return rng.uniform(lo, hi, size=k)

    return dict(
        storage=storage,
        network=network,
        g_wake_extra=draw(0.0, 1e-4),
        g_p_wake=draw(0.0, 0.9),
        g_irq_latency=draw(1e-6, 1e-4),
        g_io_factor=draw(1.0, 1.7),
        g_thrash=draw(1.0, 1.3),
        g_comm_factor=draw(1.0, 2.5),
        g_net_factor=draw(1.0, 3.0),
    )


def _both(programs, proc_of, group_of, op_marks, deployments, kw) -> None:
    got = compile_programs(
        programs, proc_of, group_of, op_marks, deployments, **kw
    )
    want = _reference_compile(
        programs, proc_of, group_of, op_marks, deployments, **kw
    )
    _assert_same_tables(got, want)


_floats = st.floats(0.0, 0.3, allow_subnormal=False)
_compute = st.builds(
    ComputeSegment,
    work=st.floats(1e-6, 0.5),
    mem_intensity=st.sampled_from([0.0, 0.3, 0.35, 0.95, 1.0]),
    kernel_share=st.sampled_from([0.0, 0.02, 0.4]),
)
_io = st.builds(
    IoSegment,
    device_time=_floats,
    irqs=st.integers(1, 4),
    kind=st.sampled_from([IrqKind.DISK, IrqKind.NET]),
    is_write=st.booleans(),
)
_comm = st.builds(
    CommSegment,
    base_latency=_floats,
    cpu_work=st.sampled_from([0.0, 0.002, 1e-7]),
    remote=st.booleans(),
    message_bytes=st.sampled_from([0.0, 4096.0, 65536.0, 1e6 / 3]),
)
_barrier = st.builds(
    BarrierSegment,
    barrier_id=st.integers(0, 5),
    scope=st.sampled_from(["process", "global"]),
)
_segment = st.one_of(_compute, _io, _comm, _barrier)


@st.composite
def _corpus(draw):
    """Threads of mixed programs over several processes and groups.

    Segments are drawn from a shared pool too, so programs reuse the
    same frozen objects the way the builders now do.
    """
    pool = draw(st.lists(_segment, min_size=1, max_size=6))
    n_groups = draw(st.integers(1, 3))
    n_threads = draw(st.integers(1, 12))
    programs, proc_of, group_of = [], [], []
    op_marks: dict[int, dict[int, float]] = {}
    pidx, group = 0, 0
    for tid in range(n_threads):
        program = draw(
            st.lists(
                st.one_of(_segment, st.sampled_from(pool)), min_size=1,
                max_size=10,
            )
        )
        programs.append(program)
        if tid and draw(st.booleans()):  # next process, in any group
            pidx += 1
            group = draw(st.integers(0, n_groups - 1))
        proc_of.append(pidx)
        group_of.append(group)
        marks = draw(
            st.dictionaries(
                st.integers(-2, len(program) + 2),  # some out of range
                st.floats(0.0, 1.0),
                max_size=3,
            )
        )
        if marks:
            op_marks[tid] = marks
    return programs, proc_of, group_of, op_marks, n_groups


class TestColumnwiseCompile:
    @given(
        corpus=_corpus(),
        platforms=st.lists(st.sampled_from(_PLATFORMS), min_size=3, max_size=3),
        storage=st.sampled_from(
            [StorageModel(), StorageModel(write_penalty=1.37),
             _SlowDisk(effective_concurrency=3, write_penalty=2.0)]
        ),
        network=st.sampled_from(
            [NetworkModel(), NetworkModel(latency=3.3e-5, bandwidth=1.1e9)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_programs(self, corpus, platforms, storage, network, seed):
        programs, proc_of, group_of, op_marks, n_groups = corpus
        deployments = [_deployment(*p) for p in platforms[:n_groups]]
        kw = _args(deployments, np.random.default_rng(seed), storage, network)
        _both(programs, proc_of, group_of, op_marks, deployments, kw)

    @pytest.mark.parametrize(
        "workload, cores",
        [
            (FfmpegWorkload().split(30), 16),
            (FfmpegWorkload(), 8),
            (MpiPrimeWorkload(), 32),
            (WordPressWorkload(n_requests=200), 4),
            (CassandraWorkload(n_operations=300, n_threads=40), 8),
        ],
        ids=["ffmpeg-split30", "ffmpeg", "mpi-prime", "wordpress", "cassandra"],
    )
    def test_workload_programs(self, workload, cores):
        processes = workload.build(cores, np.random.default_rng(11))
        self._check_deployed([processes], ["CN-vanilla"])

    def test_distributed_two_groups(self):
        nodes = DistributedMpiWorkload(n_nodes=2).build_nodes(
            16, np.random.default_rng(5)
        )
        self._check_deployed(nodes, ["VM-pinned", "CN-vanilla"])

    @staticmethod
    def _check_deployed(groups: list, platforms: list[str]) -> None:
        programs, proc_of, group_of = [], [], []
        op_marks: dict[int, dict[int, float]] = {}
        pidx = 0
        for g, processes in enumerate(groups):
            for proc in processes:
                for th in proc.threads:
                    if th.op_marks:
                        op_marks[len(programs)] = {
                            m.seg_index: m.submitted_at for m in th.op_marks
                        }
                    programs.append(th.program)
                    proc_of.append(pidx)
                    group_of.append(g)
                pidx += 1
        deployments = [_deployment(*p.split("-")) for p in platforms]
        kw = _args(
            deployments, np.random.default_rng(1), StorageModel(), NetworkModel()
        )
        _both(programs, proc_of, group_of, op_marks, deployments, kw)

    def test_subclassed_segments_dispatch_like_isinstance(self):
        class Tagged(ComputeSegment):
            pass

        programs = [[Tagged(work=0.25), BarrierSegment(1)]]
        deployments = [_deployment("VM", "vanilla")]
        kw = _args(
            deployments, np.random.default_rng(2), StorageModel(), NetworkModel()
        )
        _both(programs, [0], [0], {}, deployments, kw)
        got = compile_programs(programs, [0], [0], {}, deployments, **kw)
        assert got.kind.tolist() == [KIND_COMPUTE, KIND_BARRIER]
