"""Unit and property tests for :mod:`repro.workloads`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    BarrierSegment,
    CassandraWorkload,
    CommSegment,
    ComputeSegment,
    FfmpegWorkload,
    IoSegment,
    MpiPrimeWorkload,
    MpiSearchWorkload,
    SyntheticWorkload,
    WordPressWorkload,
    total_compute_work,
    total_io_time,
)
from repro.workloads.base import OpMark, ProcessSpec, ThreadSpec
from repro.workloads.segments import count_irqs, validate_program


def rng():
    return np.random.default_rng(42)


class TestSegments:
    def test_compute_validation(self):
        with pytest.raises(WorkloadError):
            ComputeSegment(work=0.0)
        with pytest.raises(WorkloadError):
            ComputeSegment(work=1.0, mem_intensity=1.5)
        with pytest.raises(WorkloadError):
            ComputeSegment(work=1.0, kernel_share=-0.1)

    def test_io_validation(self):
        with pytest.raises(WorkloadError):
            IoSegment(device_time=-1.0)
        with pytest.raises(WorkloadError):
            IoSegment(device_time=0.0, irqs=0)

    def test_comm_validation(self):
        with pytest.raises(WorkloadError):
            CommSegment(base_latency=-1.0)

    def test_barrier_validation(self):
        with pytest.raises(WorkloadError):
            BarrierSegment(barrier_id=-1)

    def test_totals(self):
        program = [
            ComputeSegment(work=1.0),
            IoSegment(device_time=0.5, irqs=3),
            CommSegment(base_latency=0.1, cpu_work=0.2),
            BarrierSegment(barrier_id=0),
        ]
        assert total_compute_work(program) == pytest.approx(1.2)
        assert total_io_time(program) == pytest.approx(0.5)
        assert count_irqs(program) == 3

    def test_validate_program_empty(self):
        with pytest.raises(WorkloadError):
            validate_program([])

    def test_validate_program_bad_type(self):
        with pytest.raises(WorkloadError):
            validate_program(["not-a-segment"])  # type: ignore[list-item]


_NAN = float("nan")
_INF = float("inf")


class TestNonFiniteInput:
    """NaN and infinite inputs are rejected where they are constructed,
    not discovered later as an engine step-guard or deadlock failure."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ComputeSegment(work=_NAN),
            lambda: ComputeSegment(work=_INF),
            lambda: ComputeSegment(work=1.0, mem_intensity=_NAN),
            lambda: IoSegment(device_time=_NAN),
            lambda: IoSegment(device_time=_INF),
            lambda: IoSegment(device_time=0.0, irqs=_NAN),
            lambda: IoSegment(device_time=0.0, irqs=1.5),
            lambda: CommSegment(base_latency=_NAN),
            lambda: CommSegment(base_latency=0.0, cpu_work=_INF),
            lambda: CommSegment(base_latency=0.0, message_bytes=_NAN),
            lambda: BarrierSegment(barrier_id=_NAN),
            lambda: BarrierSegment(barrier_id=0.5),
            lambda: OpMark(0, _NAN),
            lambda: OpMark(_NAN, 0.0),
            lambda: ThreadSpec(program=[ComputeSegment(1.0)], arrival_time=_NAN),
            lambda: ThreadSpec(
                program=[ComputeSegment(1.0)], working_set_bytes=_INF
            ),
            lambda: ProcessSpec(
                threads=[ThreadSpec(program=[ComputeSegment(1.0)])], weight=_NAN
            ),
            lambda: ProcessSpec(
                threads=[ThreadSpec(program=[ComputeSegment(1.0)])],
                memory_demand_bytes=_INF,
            ),
        ],
    )
    def test_program_primitives(self, make):
        with pytest.raises(WorkloadError):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: WordPressWorkload(php_work=_NAN),
            lambda: WordPressWorkload(disk_io_time=_INF),
            lambda: WordPressWorkload(jitter_sigma=_NAN),
            lambda: CassandraWorkload(read_io_time=_NAN),
            lambda: CassandraWorkload(submission_window=_INF),
            lambda: MpiSearchWorkload(jitter_sigma=_NAN),
            lambda: MpiSearchWorkload(total_work=_INF),
            lambda: MpiPrimeWorkload(imbalance=_NAN),
            lambda: FfmpegWorkload(video_seconds=_NAN),
            lambda: FfmpegWorkload(jitter_sigma=_INF),
            lambda: SyntheticWorkload(compute_per_phase=_NAN),
            lambda: SyntheticWorkload(jitter_sigma=_NAN),
        ],
    )
    def test_workload_parameters(self, make):
        with pytest.raises(WorkloadError):
            make()

    def test_extra_workloads(self):
        from repro.workloads import DistributedMpiWorkload, OpenLoopWordPress

        for make in (
            lambda: DistributedMpiWorkload(inter_node_penalty=_NAN),
            lambda: DistributedMpiWorkload(message_bytes=_INF),
            lambda: OpenLoopWordPress(rate=_INF),
            lambda: OpenLoopWordPress(rate=_NAN),
        ):
            with pytest.raises(WorkloadError):
                make()


class TestThreadAndProcessSpecs:
    def test_thread_requires_program(self):
        with pytest.raises(WorkloadError):
            ThreadSpec(program=[])

    def test_thread_negative_arrival(self):
        with pytest.raises(WorkloadError):
            ThreadSpec(program=[ComputeSegment(1.0)], arrival_time=-1)

    def test_op_mark_out_of_range(self):
        with pytest.raises(WorkloadError):
            ThreadSpec(
                program=[ComputeSegment(1.0)],
                op_marks=[OpMark(seg_index=5, submitted_at=0.0)],
            )

    def test_op_mark_validation(self):
        with pytest.raises(WorkloadError):
            OpMark(seg_index=-1, submitted_at=0.0)

    def test_process_requires_threads(self):
        with pytest.raises(WorkloadError):
            ProcessSpec(threads=[])

    def test_thread_aggregates(self):
        t = ThreadSpec(
            program=[ComputeSegment(2.0), IoSegment(0.5, irqs=2)]
        )
        assert t.compute_work == pytest.approx(2.0)
        assert t.io_time == pytest.approx(0.5)
        assert t.irq_count == 2


class TestFfmpeg:
    def test_table1_identity(self):
        wl = FfmpegWorkload()
        assert wl.name == "FFmpeg"
        assert wl.version == "3.4.6"
        assert wl.metric == "makespan"

    def test_thread_cap_at_16(self):
        wl = FfmpegWorkload()
        assert wl.n_threads(64) == 16
        assert wl.n_threads(16) == 16

    def test_thread_oversubscription_small(self):
        wl = FfmpegWorkload()
        assert wl.n_threads(2) == 3
        assert wl.n_threads(8) == 12

    def test_single_process_by_default(self):
        procs = FfmpegWorkload().build(4, rng())
        assert len(procs) == 1

    def test_total_work_preserved_by_split(self):
        base = FfmpegWorkload(jitter_sigma=0.0)
        split = base.split(30)
        w_base = base.total_compute_work(16, rng())
        w_split = split.total_compute_work(16, rng())
        assert w_split == pytest.approx(w_base, rel=1e-6)

    def test_split_process_count(self):
        assert len(FfmpegWorkload().split(30).build(16, rng())) == 30

    def test_split_invalid(self):
        with pytest.raises(WorkloadError):
            FfmpegWorkload().split(0)

    def test_amdahl_serial_share(self):
        wl = FfmpegWorkload(jitter_sigma=0.0)
        procs = wl.build(16, rng())
        works = [t.compute_work for t in procs[0].threads]
        # thread 0 carries the serial fraction
        assert works[0] > works[1]
        assert works[1] == pytest.approx(works[2], rel=1e-6)

    def test_barriers_are_per_task(self):
        split = FfmpegWorkload().split(2).build(16, rng())
        ids0 = {
            s.barrier_id
            for t in split[0].threads
            for s in t.program
            if isinstance(s, BarrierSegment)
        }
        ids1 = {
            s.barrier_id
            for t in split[1].threads
            for s in t.program
            if isinstance(s, BarrierSegment)
        }
        assert ids0.isdisjoint(ids1)

    def test_cpu_bound_profile(self):
        assert FfmpegWorkload().profile().cpu_duty_cycle > 0.9

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            FfmpegWorkload(video_seconds=0)
        with pytest.raises(WorkloadError):
            FfmpegWorkload(serial_fraction=1.0)

    @given(cores=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_build_any_core_count(self, cores):
        procs = FfmpegWorkload(jitter_sigma=0.0).build(cores, rng())
        assert len(procs[0].threads) == FfmpegWorkload().n_threads(cores)


class TestMpi:
    def test_rank_per_core(self):
        procs = MpiSearchWorkload().build(8, rng())
        assert len(procs[0].threads) == 8

    def test_strong_scaling(self):
        wl = MpiSearchWorkload(jitter_sigma=0.0)
        w4 = wl.total_compute_work(4, rng())
        w16 = wl.total_compute_work(16, rng())
        assert w4 == pytest.approx(w16, rel=1e-6)

    def test_round_latency_grows_with_ranks(self):
        wl = MpiSearchWorkload()
        assert wl.round_latency(64) > wl.round_latency(4)

    def test_search_balanced(self):
        w = MpiSearchWorkload().rank_weights(8)
        assert np.allclose(w, 1.0)

    def test_prime_imbalanced(self):
        w = MpiPrimeWorkload().rank_weights(8)
        assert w[-1] > w[0]
        assert w.sum() == pytest.approx(8.0)

    def test_barrier_per_round(self):
        wl = MpiSearchWorkload(n_rounds=5)
        procs = wl.build(4, rng())
        barriers = [
            s
            for s in procs[0].threads[0].program
            if isinstance(s, BarrierSegment)
        ]
        assert len(barriers) == 5

    def test_single_rank_has_no_comm(self):
        procs = MpiSearchWorkload().build(1, rng())
        comm = [
            s
            for s in procs[0].threads[0].program
            if isinstance(s, CommSegment)
        ]
        assert comm == []

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            MpiSearchWorkload(total_work=0)
        with pytest.raises(WorkloadError):
            MpiSearchWorkload(n_rounds=0)


class TestWordPress:
    def test_request_count(self):
        procs = WordPressWorkload(n_requests=50).build(4, rng())
        assert len(procs) == 50

    def test_three_plus_irqs_per_request(self):
        """Section IV-C: each request raises at least three IRQs."""
        procs = WordPressWorkload(n_requests=5).build(4, rng())
        for p in procs:
            assert p.threads[0].irq_count >= 3

    def test_each_request_has_op_mark(self):
        procs = WordPressWorkload(n_requests=5).build(4, rng())
        for p in procs:
            assert len(p.threads[0].op_marks) == 1

    def test_arrivals_within_stagger(self):
        wl = WordPressWorkload(n_requests=100)
        procs = wl.build(4, rng())
        arrivals = [p.threads[0].arrival_time for p in procs]
        assert max(arrivals) <= wl.accept_stagger
        assert arrivals == sorted(arrivals)

    def test_deterministic_given_rng(self):
        a = WordPressWorkload(n_requests=10).build(4, rng())
        b = WordPressWorkload(n_requests=10).build(4, rng())
        assert a[3].threads[0].arrival_time == b[3].threads[0].arrival_time

    def test_io_bound_profile(self):
        p = WordPressWorkload().profile()
        assert p.io_intensity >= 0.4
        assert p.cpu_duty_cycle < 0.6

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            WordPressWorkload(n_requests=0)
        with pytest.raises(WorkloadError):
            WordPressWorkload(php_work=0)


class TestCassandra:
    def test_single_process(self):
        procs = CassandraWorkload().build(4, rng())
        assert len(procs) == 1

    def test_hundred_threads(self):
        procs = CassandraWorkload().build(4, rng())
        assert len(procs[0].threads) == 100

    def test_thousand_ops_marked(self):
        procs = CassandraWorkload().build(4, rng())
        marks = sum(len(t.op_marks) for t in procs[0].threads)
        assert marks == 1000

    def test_write_fraction_respected(self):
        wl = CassandraWorkload(n_operations=2000, write_fraction=0.25)
        procs = wl.build(4, rng())
        writes = sum(
            1
            for t in procs[0].threads
            for s in t.program
            if isinstance(s, IoSegment) and s.is_write
        )
        assert writes / 2000 == pytest.approx(0.25, abs=0.05)

    def test_memory_demand_thrashes_large(self):
        wl = CassandraWorkload()
        procs = wl.build(2, rng())
        assert procs[0].memory_demand_bytes > 8 * 2**30

    def test_storage_profile_is_custom(self):
        assert CassandraWorkload().storage_model().write_penalty > 1.0

    def test_ultra_io_profile(self):
        assert CassandraWorkload().profile().io_intensity == 1.0

    def test_submissions_within_window(self):
        wl = CassandraWorkload()
        procs = wl.build(4, rng())
        subs = [
            m.submitted_at for t in procs[0].threads for m in t.op_marks
        ]
        assert 0 <= min(subs) and max(subs) <= wl.submission_window

    def test_more_threads_than_ops(self):
        wl = CassandraWorkload(n_operations=5, n_threads=10)
        procs = wl.build(4, rng())
        assert len(procs[0].threads) == 5  # idle workers dropped

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            CassandraWorkload(write_fraction=2.0)
        with pytest.raises(WorkloadError):
            CassandraWorkload(n_threads=0)


class TestSynthetic:
    def test_pure_compute(self):
        wl = SyntheticWorkload(io_fraction=0.0)
        procs = wl.build(4, rng())
        assert all(
            isinstance(s, ComputeSegment)
            for p in procs
            for t in p.threads
            for s in t.program
        )

    def test_io_fraction_creates_io(self):
        wl = SyntheticWorkload(io_fraction=0.5)
        procs = wl.build(4, rng())
        io = [
            s
            for p in procs
            for t in p.threads
            for s in t.program
            if isinstance(s, IoSegment)
        ]
        assert io

    def test_io_fraction_ratio(self):
        wl = SyntheticWorkload(io_fraction=0.5, jitter_sigma=0.0)
        procs = wl.build(1, rng())
        t = procs[0].threads[0]
        assert t.io_time == pytest.approx(t.compute_work, rel=1e-6)

    def test_multitasking_axis(self):
        wl = SyntheticWorkload(n_processes=7)
        assert len(wl.build(4, rng())) == 7

    def test_invalid_io_fraction(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(io_fraction=1.0)

    @given(
        io_fraction=st.floats(min_value=0, max_value=0.95),
        procs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_profile_duty_complements_io(self, io_fraction, procs):
        wl = SyntheticWorkload(io_fraction=io_fraction, n_processes=procs)
        assert wl.profile().cpu_duty_cycle == pytest.approx(1.0 - io_fraction)
