"""The native event loop against the Python reference loop.

The C kernel (:mod:`repro.engine.native`) must reproduce the Python
loop bit for bit.  The reference here is the *traced* Python path: a
trace sink keeps a run on the fully sequential Python loop, so every
comparison pits the kernel against the interpreter it was ported from.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FfmpegWorkload, instance_type, make_platform, r830_host
from repro.engine import native
from repro.engine.simulator import EngineConfig, Simulator
from repro.engine.tracing import ListTraceSink
from repro.errors import SimulationError
from repro.hostmodel.irq import IrqKind
from repro.hostmodel.topology import make_host
from repro.obs.sketch import LatencyRecorder
from repro.platforms.provisioning import InstanceType
from repro.rng import RngFactory
from repro.run.calibration import Calibration
from repro.run.execution import finish_run, prepare_run
from repro.sched.accounting import OverheadModel
from repro.units import GIB
from repro.workloads.base import OpMark, ProcessSpec, ThreadSpec
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    IoSegment,
)

_HOST = make_host(64, name="native-host", memory_gib=256)
_GOLDEN = Path(__file__).parent / "golden" / "engine_large_n.json"

needs_kernel = pytest.mark.skipif(
    native.kernel() is None, reason="native kernel unavailable"
)


def _config(cores: int, platform: str, **kw) -> EngineConfig:
    kind, mode = platform.split("-")
    inst = InstanceType(name=f"c{cores}", cores=cores, memory_bytes=64 * GIB)
    overhead = OverheadModel(
        _HOST, make_platform(kind, inst, mode), Calibration()
    )
    return EngineConfig(capacity=float(cores), overhead=overhead, **kw)


def _simulate(processes, config_kw: dict, *, traced: bool):
    """Run once; returns (loop, fingerprint) or (loop, error message)."""
    lat = LatencyRecorder()
    if traced:
        config_kw = {**config_kw, "trace": ListTraceSink()}
    cfg = _config(**config_kw, latency=lat)
    sim = Simulator(processes, cfg)
    try:
        res = sim.run()
    except SimulationError as exc:
        return sim.loop, str(exc)
    return sim.loop, (
        res.thread_finish_times.tobytes(),
        res.op_responses.tobytes(),
        repr(res.counters),  # exact floats, types and histogram order
        json.dumps(lat._pending),
        sim.t,
        sim.outstanding_disk,
    )


def _assert_same(processes, **config_kw) -> None:
    loop, got = _simulate(processes, config_kw, traced=False)
    ref_loop, want = _simulate(processes, config_kw, traced=True)
    assert (loop, ref_loop) == ("native", "python")
    assert got == want


# ---------------------------------------------------------------------------
# a hypothesis corpus of single-group programs

_compute = st.builds(
    ComputeSegment,
    work=st.sampled_from([0.001, 0.01, 0.05, 0.2]),
    mem_intensity=st.sampled_from([0.0, 0.3, 1.0]),
    kernel_share=st.sampled_from([0.0, 0.4]),
)
_io = st.builds(
    IoSegment,
    device_time=st.sampled_from([0.0, 0.002, 0.01]),
    irqs=st.integers(1, 3),
    kind=st.sampled_from([IrqKind.DISK, IrqKind.NET]),
    is_write=st.booleans(),
)
_comm = st.builds(
    CommSegment,
    base_latency=st.sampled_from([0.0, 0.001]),
    cpu_work=st.sampled_from([0.0, 0.002]),
    remote=st.booleans(),
    message_bytes=st.sampled_from([0.0, 4096.0]),
)
_segment = st.one_of(_compute, _compute, _io, _comm)


@st.composite
def _process(draw, pidx: int) -> ProcessSpec:
    """Threads sharing one barrier sequence, so every barrier releases;
    empty gaps between barriers give back-to-back barrier cascades."""
    n_threads = draw(st.integers(1, 5))
    n_barriers = draw(st.integers(0, 3))
    threads = []
    for _ in range(n_threads):
        program = []
        for b in range(n_barriers + 1):
            program += draw(st.lists(_segment, max_size=3))
            if b < n_barriers:
                program.append(BarrierSegment(barrier_id=b))
        if not program:
            program = [draw(_compute)]
        # 1e-13 is inside the engine's 1e-12 delivery window: both
        # arrivals are delivered in one step, in ascending thread id
        arrival = draw(st.sampled_from([0.0, 0.0, 1e-13, 0.005, 0.05]))
        marks = [
            OpMark(seg_index=i, submitted_at=max(0.0, arrival - 0.001))
            for i in draw(
                st.lists(st.integers(0, len(program) - 1), unique=True,
                         max_size=2)
            )
        ]
        threads.append(
            ThreadSpec(program=program, arrival_time=arrival, op_marks=marks)
        )
    return ProcessSpec(threads=threads, name=f"p{pidx}")


@st.composite
def _population(draw) -> list[ProcessSpec]:
    return [draw(_process(p)) for p in range(draw(st.integers(1, 6)))]


@needs_kernel
class TestBitIdentity:
    @given(
        processes=_population(),
        cores=st.integers(1, 8),
        platform=st.sampled_from(["CN-vanilla", "VM-pinned", "BM-vanilla"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_programs(self, processes, cores, platform):
        _assert_same(processes, cores=cores, platform=platform)

    def test_completion_waves_and_disk_queueing(self):
        """Dozens of identical threads finishing together (the Python
        loop's vectorized wave path) with a saturated disk queue."""
        program = [
            ComputeSegment(work=0.01),
            IoSegment(device_time=0.004, irqs=2),
            ComputeSegment(work=0.01),
            IoSegment(device_time=0.001, kind=IrqKind.NET),
            ComputeSegment(work=0.002),
        ]
        procs = [
            ProcessSpec(
                threads=[
                    ThreadSpec(program=program, op_marks=[OpMark(4, 0.0)])
                ],
                name=f"r{i}",
            )
            for i in range(120)
        ]
        _assert_same(procs, cores=4, platform="CN-vanilla")

    def test_duplicate_calendar_entries_deliver_once(self):
        procs = _busy()

        def once(traced: bool):
            cfg = _config(
                cores=2, platform="CN-vanilla",
                **({"trace": ListTraceSink()} if traced else {}),
            )
            sim = Simulator(procs, cfg)
            for j in (2, 0, 2):
                sim._calendar.schedule(j, float(sim.wake[j]))
            res = sim.run()
            finish = res.thread_finish_times.tobytes()
            return sim.loop, finish, repr(res.counters)

        loop, *got = once(traced=False)
        ref_loop, *want = once(traced=True)
        assert (loop, ref_loop) == ("native", "python")
        assert got == want

    def test_large_n_golden(self):
        """480 threads with barriers: the kernel reproduces the pinned
        engine_large_n golden and the kernel-free Python loop."""
        golden = json.loads(_GOLDEN.read_text())

        def once():
            prep = prepare_run(
                FfmpegWorkload().split(30),
                make_platform("CN", instance_type("4xLarge"), "vanilla"),
                r830_host(),
                rng=RngFactory().fresh_stream("perf"),
            )
            result = prep.sim.run()
            return prep.sim.loop, finish_run(prep, result), result

        loop, rr, res = once()
        assert loop == "native"
        assert rr.value == golden["value"]
        assert rr.makespan == golden["makespan"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "kernel", lambda: None)
            py_loop, py_rr, py_res = once()
        assert py_loop == "python"
        assert repr(py_res.counters) == repr(res.counters)
        assert py_res.thread_finish_times.tobytes() == (
            res.thread_finish_times.tobytes()
        )


def _deadlocking() -> list[ProcessSpec]:
    # barrier 0 expects two arrivals from one thread that waits at the
    # first: nobody can ever release it
    return [
        ProcessSpec(
            threads=[
                ThreadSpec(
                    program=[
                        ComputeSegment(work=0.01),
                        BarrierSegment(barrier_id=0),
                        BarrierSegment(barrier_id=0),
                    ]
                ),
                ThreadSpec(program=[ComputeSegment(work=0.02)]),
            ]
        )
    ]


def _busy() -> list[ProcessSpec]:
    return [
        ProcessSpec(
            threads=[
                ThreadSpec(
                    program=[ComputeSegment(work=0.05), IoSegment(0.01)] * 20
                )
                for _ in range(4)
            ]
        )
    ]


@needs_kernel
class TestGuardErrors:
    @pytest.mark.parametrize(
        "processes, extra, expected",
        [
            (_deadlocking, {}, "deadlock: no runnable threads"),
            (_busy, {"max_steps": 17}, "exceeded 17 engine steps at t="),
            (_busy, {"max_time": 0.3}, "exceeded max simulation time 0.3s"),
        ],
    )
    def test_same_message_as_python(self, processes, extra, expected):
        kw = dict(cores=2, platform="CN-vanilla", **extra)
        loop, got = _simulate(processes(), kw, traced=False)
        _, want = _simulate(processes(), kw, traced=True)
        assert loop == "native"
        assert isinstance(got, str) and got.startswith(expected)
        assert got == want


class TestLoading:
    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
    def test_kernel_loads_when_gcc_is_present(self):
        assert native.kernel() is not None, native.load_error()

    @needs_kernel
    def test_fallback_when_kernel_cannot_load(self, monkeypatch, tmp_path):
        """Without a cached library and without gcc the engine runs the
        Python loop, with the same bytes."""
        procs = _busy()
        loop, want = _simulate(procs, dict(cores=2, platform="VM-pinned"),
                               traced=False)
        assert loop == "native"
        monkeypatch.setattr(native, "_CACHE", tmp_path / "cache")
        monkeypatch.setenv("PATH", str(tmp_path))
        native._load.cache_clear()
        try:
            assert native.kernel() is None
            assert "gcc" in native.load_error()
            loop, got = _simulate(procs, dict(cores=2, platform="VM-pinned"),
                                  traced=False)
        finally:
            monkeypatch.undo()
            native._load.cache_clear()
        assert loop == "python"
        assert got == want
        assert native.kernel() is not None

    def test_ineligible_runs_stay_on_python(self):
        procs = _busy()
        procs[0].weight = 2.0
        procs.append(ProcessSpec(threads=[ThreadSpec([ComputeSegment(0.1)])]))
        sim = Simulator(procs, _config(cores=2, platform="CN-vanilla"))
        sim.run()
        assert sim.loop == "python"  # weighted processes


def test_compiled_mirrors_are_built_lazily():
    sim = Simulator(_busy(), _config(cores=2, platform="CN-vanilla"))
    c = sim._compiled
    assert "work_l" not in vars(c)
    assert c.work_l == c.work.tolist()
    assert "work_l" in vars(c)
    with pytest.raises(AttributeError):
        c.no_such_l  # noqa: B018
    assert np.array_equal(c.kind, np.asarray(c.kind_l))
