"""Tests for :mod:`repro.analysis` (stats, overhead, chr, tables, figures)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.chr import ChrRange, chr_of, estimate_suitable_chr_range
from repro.analysis.figures import figure_from_sweep, render_figure
from repro.analysis.overhead import (
    OverheadClass,
    classify_overhead,
    overhead_ratio,
    overhead_ratios,
)
from repro.analysis.stats import bootstrap_ci, confidence_interval, summarize
from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.errors import AnalysisError
from repro.hostmodel.topology import r830_host
from repro.platforms.provisioning import instance_type
from repro.run.results import ExperimentResult, RunResult, SweepResult


def make_sweep(bm, cn, instances=("Large", "xLarge")):
    """Build a synthetic two-platform sweep from mean values."""
    cells = {}
    for inst, b, c in zip(instances, bm, cn):
        for label, v in (("Vanilla BM", b), ("Vanilla CN", c)):
            runs = [
                RunResult(
                    workload="w",
                    platform_label=label,
                    instance_name=inst,
                    host_name="h",
                    metric_name="makespan",
                    value=v * (1 + 0.01 * r),
                    makespan=v,
                    mean_response=float("nan"),
                    thrashed=False,
                    rep=r,
                )
                for r in range(3)
            ]
            cells[(label, inst)] = ExperimentResult(runs)
    return SweepResult(
        workload="w",
        cells=cells,
        instance_order=list(instances),
        platform_order=["Vanilla BM", "Vanilla CN"],
    )


class TestStats:
    def test_summary_of_constant(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.mean == 2.0
        assert s.ci_low == s.ci_high == 2.0

    def test_ci_contains_mean(self):
        lo, hi = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert lo < 2.5 < hi

    def test_ci_single_sample_degenerate(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(10, 1, size=5))
        big = summarize(rng.normal(10, 1, size=100))
        assert big.ci_half_width < small.ci_half_width

    def test_bootstrap_reasonable(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10, 1, size=50)
        lo, hi = bootstrap_ci(data)
        assert lo < data.mean() < hi
        assert hi - lo < 1.5

    def test_bootstrap_single_sample(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0)

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            summarize([])

    def test_nonfinite_raises(self):
        with pytest.raises(AnalysisError):
            summarize([1.0, float("nan")])

    def test_invalid_confidence(self):
        with pytest.raises(AnalysisError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_relative_ci(self):
        s = summarize([9.0, 10.0, 11.0])
        assert s.relative_ci > 0

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 10, 20, 31, 120, 400])
    def test_ci_equals_student_t_ppf(self, n, confidence):
        """The quantile comes from scipy.special.stdtrit, which is what
        scipy.stats.t.ppf evaluates: the interval must not move a bit."""
        from scipy import stats

        data = np.random.default_rng(n).normal(10.0, 2.0, size=n)
        sem = float(data.std(ddof=1)) / np.sqrt(n)
        t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        mean = float(data.mean())
        assert confidence_interval(data, confidence) == (
            mean - t * sem,
            mean + t * sem,
        )

    def test_import_does_not_load_scipy_stats(self):
        """scipy.stats costs ~0.8 s and ~45 MB at start-up; no campaign
        path needs it, so `import repro` must not pull it in."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_ci_brackets_mean(self, data):
        lo, hi = confidence_interval(data)
        m = float(np.mean(data))
        assert lo <= m <= hi


class TestOverheadRatios:
    def test_basic_ratio(self):
        assert overhead_ratio(20.0, 10.0) == 2.0

    def test_zero_baseline_raises(self):
        with pytest.raises(AnalysisError):
            overhead_ratio(1.0, 0.0)

    def test_series_from_sweep(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        ratios = overhead_ratios(sweep, "Vanilla CN")
        assert ratios[0] == pytest.approx(2.0, rel=0.02)
        assert ratios[1] == pytest.approx(1.2, rel=0.02)

    def test_classify_pto(self):
        c = classify_overhead([2.1, 2.0, 2.05, 2.0])
        assert c.kind is OverheadClass.PTO
        assert c.mean_ratio == pytest.approx(2.04, abs=0.02)

    def test_classify_pso(self):
        c = classify_overhead([2.0, 1.6, 1.2, 1.05])
        assert c.kind is OverheadClass.PSO
        assert c.decay == pytest.approx(0.95)

    def test_classify_negligible(self):
        c = classify_overhead([1.05, 1.02, 1.01])
        assert c.kind is OverheadClass.NEGLIGIBLE

    def test_classify_empty_raises(self):
        with pytest.raises(AnalysisError):
            classify_overhead([])

    def test_classify_invalid_values(self):
        with pytest.raises(AnalysisError):
            classify_overhead([1.0, -2.0])


class TestChr:
    def test_chr_of_instance(self):
        assert chr_of(instance_type("4xLarge"), r830_host()) == pytest.approx(
            16 / 112
        )

    def test_chr_of_raw_cores(self):
        assert chr_of(56, r830_host()) == pytest.approx(0.5)

    def test_chr_too_many_cores(self):
        with pytest.raises(AnalysisError):
            chr_of(200, r830_host())

    def test_range_contains(self):
        r = ChrRange(0.07, 0.14, "4xLarge")
        assert r.contains(0.1)
        assert not r.contains(0.2)
        assert not r.contains(0.07)

    def test_estimate_range_simple(self):
        # PSO vanishes at xLarge (ratio 1.1 < 1.15)
        sweep = make_sweep(bm=[10, 10], cn=[20, 11])
        band = estimate_suitable_chr_range(sweep, r830_host())
        assert band.low == pytest.approx(2 / 112)
        assert band.high == pytest.approx(4 / 112)
        assert band.vanish_instance == "xLarge"

    def test_estimate_range_first_size_ok(self):
        sweep = make_sweep(bm=[10, 10], cn=[10.5, 10.2])
        band = estimate_suitable_chr_range(sweep, r830_host())
        assert band.low == 0.0

    def test_estimate_range_never_vanishes(self):
        sweep = make_sweep(bm=[10, 10], cn=[30, 25])
        with pytest.raises(AnalysisError):
            estimate_suitable_chr_range(sweep, r830_host())

    def test_invalid_threshold(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 11])
        with pytest.raises(AnalysisError):
            estimate_suitable_chr_range(sweep, r830_host(), vanish_ratio=0.9)


class TestTables:
    def test_table1_rows(self):
        t = render_table1()
        for name in ("FFmpeg", "MPI Search", "WordPress", "Cassandra"):
            assert name in t
        assert "3.4.6" in t and "2.2" in t

    def test_table2_matches_paper(self):
        t = render_table2()
        assert "Large" in t and "16xLarge" in t
        assert "64" in t and "256" in t

    def test_table3_platforms(self):
        t = render_table3()
        for abbr in ("BM", "VM", "CN", "VMCN"):
            assert abbr in t
        assert "Docker 19.03.6" in t
        assert "Qemu 2.11.1" in t


class TestFigures:
    def test_figure_from_sweep(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        series = figure_from_sweep(sweep)
        assert [s.label for s in series] == ["Vanilla BM", "Vanilla CN"]
        assert series[1].means()[0] == pytest.approx(20.2, rel=0.02)

    def test_render_contains_labels(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        out = render_figure(figure_from_sweep(sweep), title="Fig X")
        assert "Fig X" in out
        assert "Vanilla CN" in out
        assert "Large" in out

    def test_render_empty_raises(self):
        with pytest.raises(AnalysisError):
            render_figure([], title="x")

    def test_thrashed_flagged(self):
        sweep = make_sweep(bm=[10], cn=[20], instances=("Large",))
        for r in sweep.cell("Vanilla CN", "Large").runs:
            r.thrashed = True
        out = render_figure(figure_from_sweep(sweep), title="Fig")
        assert "out of range" in out


class TestFigureCsv:
    def test_csv_rows(self):
        from repro.analysis.figures import figure_to_csv

        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        csv = figure_to_csv(figure_from_sweep(sweep))
        lines = csv.splitlines()
        assert lines[0].startswith("platform,instance")
        assert len(lines) == 1 + 2 * 2  # 2 platforms x 2 instances

    def test_csv_empty_rejected(self):
        from repro.analysis.figures import figure_to_csv

        with pytest.raises(AnalysisError):
            figure_to_csv([])
