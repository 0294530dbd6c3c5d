"""Property suite for the open-loop arrival-process generators.

The load-curve machinery leans on three guarantees from
:mod:`repro.workloads.arrivals`:

* **determinism** — the same :class:`~repro.rng.StreamSpec` always
  yields the same arrival trace, so checkpoint replay and fabric
  workers reproduce a cell exactly;
* **vectorized ≡ scalar** — the vectorized draw consumes the RNG
  stream exactly like N scalar draws, byte for byte, so engines that
  generate arrivals in bulk and engines that step request-by-request
  produce identical cells;
* **stable cell identity** — the rate-ladder cell fingerprints that
  key the checkpoint/fabric stores are process-invariant.

Plus the statistical sanity of each process: Poisson inter-arrival
moments, strict monotonicity of every trace, and the diurnal replay's
rate modulation.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.loadcurve import LoadCurveConfig
from repro.errors import ConfigurationError, WorkloadError
from repro.rng import RngFactory
from repro.run.campaign import Campaign, loadcurve_tasks
from repro.run.persistence import task_fingerprint
from repro.workloads.arrivals import (
    ARRIVAL_PROCESSES,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    arrival_process,
)

PROCESSES = [PoissonArrivals(), BurstyArrivals(), DiurnalArrivals()]


def _rng(seed: int, label: str = "arr") -> np.random.Generator:
    return RngFactory(seed).stream_spec(label).make()


# -- determinism -----------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("proc", PROCESSES, ids=lambda p: p.name)
    def test_same_stream_spec_same_trace(self, proc):
        spec = RngFactory(13).stream_spec("trace", rep=2)
        a = proc.times(257, 80.0, spec.make())
        b = proc.times(257, 80.0, spec.make())
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("proc", PROCESSES, ids=lambda p: p.name)
    def test_different_rep_different_trace(self, proc):
        factory = RngFactory(13)
        a = proc.times(64, 80.0, factory.stream_spec("trace", rep=0).make())
        b = proc.times(64, 80.0, factory.stream_spec("trace", rep=1).make())
        assert a.tobytes() != b.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(ARRIVAL_PROCESSES),
        n=st.integers(1, 400),
        rate=st.floats(0.5, 5000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vectorized_equals_scalar_byte_for_byte(self, name, n, rate, seed):
        proc = arrival_process(name)
        vec = proc.times(n, rate, _rng(seed))
        scalar = proc.times_scalar(n, rate, _rng(seed))
        assert vec.dtype == scalar.dtype == np.float64
        assert vec.tobytes() == scalar.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(ARRIVAL_PROCESSES),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    def test_trace_strictly_increasing(self, name, n, seed):
        times = arrival_process(name).times(n, 100.0, _rng(seed))
        assert times.shape == (n,)
        assert np.all(times > 0.0)
        assert np.all(np.diff(times) > 0.0)

    def test_prefix_property_rate_only_rescales(self):
        """The unit-rate realization is shared: a rung at twice the rate
        is the same trace compressed by half (prefix-stream seeding —
        see docs/MODEL.md)."""
        for proc in PROCESSES:
            lo = proc.times(128, 100.0, _rng(5))
            hi = proc.times(128, 200.0, _rng(5))
            np.testing.assert_allclose(lo, 2.0 * hi, rtol=1e-12)


# -- statistics ------------------------------------------------------------


class TestStatistics:
    def test_poisson_interarrival_moments(self):
        """Exponential gaps: mean 1/rate, variance 1/rate^2 (5% tol at
        n = 200k with a fixed seed)."""
        rate = 250.0
        times = PoissonArrivals().times(200_000, rate, _rng(99))
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert math.isclose(gaps.mean(), 1.0 / rate, rel_tol=0.05)
        assert math.isclose(gaps.var(), 1.0 / rate**2, rel_tol=0.05)

    def test_bursty_preserves_mean_rate_but_fattens_tail(self):
        rate = 250.0
        n = 200_000
        poisson = PoissonArrivals().times(n, rate, _rng(7))
        bursty = BurstyArrivals().times(n, rate, _rng(7))
        # same long-run rate (makespans within 10%) ...
        assert math.isclose(bursty[-1], poisson[-1], rel_tol=0.10)
        # ... but burst gaps stretch the inter-arrival tail
        pg = np.diff(poisson)
        bg = np.diff(bursty)
        assert np.quantile(bg, 0.999) > 1.3 * np.quantile(pg, 0.999)

    def test_diurnal_replay_modulates_local_rate(self):
        """More arrivals land in the peak slots of the day shape than in
        the troughs, and the replay is exactly monotone."""
        proc = DiurnalArrivals()
        k = len(proc.trace)
        times = proc.unit_times(120_000, _rng(21))  # slots are unit-length
        assert np.all(np.diff(times) > 0.0)
        slot = np.floor(times % k).astype(int)
        counts = np.bincount(slot, minlength=k)
        weights = np.asarray(proc.trace, dtype=float)
        assert counts[int(weights.argmax())] > 2.0 * counts[int(weights.argmin())]

    def test_diurnal_unit_mean_normalization(self):
        """Whatever the trace's scale, the long-run rate is the nominal
        one (weights are normalized to unit mean)."""
        scaled = DiurnalArrivals(trace=(30.0, 90.0, 150.0, 30.0))
        times = scaled.times(50_000, 500.0, _rng(3))
        assert math.isclose(times[-1], 50_000 / 500.0, rel_tol=0.05)


# -- validation ------------------------------------------------------------


class TestValidation:
    def test_unknown_process_rejected(self):
        with pytest.raises(WorkloadError):
            arrival_process("fractal")

    @pytest.mark.parametrize("proc", PROCESSES, ids=lambda p: p.name)
    def test_bad_n_and_rate_rejected(self, proc):
        with pytest.raises(WorkloadError):
            proc.times(0, 100.0, _rng(1))
        with pytest.raises(WorkloadError):
            proc.times(4, 0.0, _rng(1))

    def test_bad_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            BurstyArrivals(burst_factor=1.0)
        with pytest.raises(WorkloadError):
            BurstyArrivals(switch_prob=0.0)
        with pytest.raises(WorkloadError):
            DiurnalArrivals(trace=(1.0,))
        with pytest.raises(WorkloadError):
            DiurnalArrivals(trace=(1.0, 0.0))

    @pytest.mark.parametrize(
        "kw",
        [
            {"rates": (10.0, math.inf)},
            {"rates": (math.nan, 10.0)},
            {"knee_multiple": math.inf},
        ],
    )
    def test_non_finite_load_curve_rejected(self, kw):
        with pytest.raises(ConfigurationError, match="finite"):
            LoadCurveConfig(**kw)


# -- cell identity ---------------------------------------------------------

_FP_SNIPPET = """
import sys
from repro.analysis.loadcurve import LoadCurveConfig
from repro.run.campaign import Campaign, loadcurve_tasks
from repro.run.persistence import task_fingerprint

tasks, _ = loadcurve_tasks(Campaign(
    include=("loadcurve",),
    loadcurve=LoadCurveConfig(rates=(50.0, 100.0), n_requests=8, reps=1),
))
sys.stdout.write("\\n".join(task_fingerprint(t) for t in tasks))
"""


class TestCellFingerprints:
    def _ladder_fingerprints(self):
        tasks, _ = loadcurve_tasks(
            Campaign(
                include=("loadcurve",),
                loadcurve=LoadCurveConfig(
                    rates=(50.0, 100.0), n_requests=8, reps=1
                ),
            )
        )
        return [task_fingerprint(t) for t in tasks]

    def test_fingerprints_distinct_per_cell(self):
        fps = self._ladder_fingerprints()
        assert all(fp is not None for fp in fps)
        assert len(set(fps)) == len(fps)

    def test_fingerprints_stable_across_processes(self):
        """The checkpoint/fabric key of every ladder cell is identical
        when derived in a fresh interpreter (no per-process salting)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", _FP_SNIPPET],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.split("\n") == self._ladder_fingerprints()
