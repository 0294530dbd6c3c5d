"""Statistical treatment of repeated measurements.

The paper reports "the mean and 95% confidence interval" over 6-20
repetitions of each configuration (Sections III-B1..B4).  With samples
that small the normal approximation is wrong, so the confidence interval
uses the Student-t quantile; a bootstrap alternative is provided for
skewed metrics (response times under overload).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from repro.errors import AnalysisError

__all__ = [
    "StatSummary",
    "confidence_interval",
    "bootstrap_ci",
    "needs_more_samples",
    "summarize",
]


@dataclass(frozen=True)
class StatSummary:
    """Mean and confidence interval of one sample set."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_ci(self) -> float:
        """CI half-width relative to the mean (0 when the mean is 0)."""
        if self.mean == 0:
            return 0.0
        return self.ci_half_width / abs(self.mean)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.4g} +/- {self.ci_half_width:.2g} "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


def _validate(samples: np.ndarray) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise AnalysisError("cannot summarize an empty sample set")
    if not np.all(np.isfinite(arr)):
        raise AnalysisError("samples contain non-finite values")
    return arr


def confidence_interval(
    samples: np.ndarray | list[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval of the mean.

    A single sample yields a degenerate interval at the value.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    arr = _validate(np.asarray(samples))
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    if sem == 0.0:
        return (mean, mean)
    # Student-t quantile; scipy.stats.t.ppf evaluates exactly this, but
    # importing scipy.stats would add ~0.8 s and ~45 MB to `import repro`
    t = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return (mean - t * sem, mean + t * sem)


def bootstrap_ci(
    samples: np.ndarray | list[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise AnalysisError(f"n_resamples must be >= 1, got {n_resamples}")
    arr = _validate(np.asarray(samples))
    if arr.size == 1:
        v = float(arr[0])
        return (v, v)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


def needs_more_samples(
    samples: np.ndarray | list[float],
    *,
    target_rel_ci: float | None = None,
    target_half_width: float | None = None,
    confidence: float = 0.95,
) -> bool:
    """True while the Student-t CI of the mean misses its target width.

    The stopping rule of the adaptive rep allocator
    (:mod:`repro.analysis.adaptive`): given the samples measured so far,
    is the confidence interval still wider than ``target_half_width``
    (absolute seconds) or ``target_rel_ci`` (fraction of the mean)?
    Exactly one target must be given; an absolute target wins when both
    are set.  A single sample yields a degenerate interval and never
    asks for more — callers enforce their own minimum rep count first.
    """
    if target_half_width is None and target_rel_ci is None:
        raise AnalysisError(
            "one of target_rel_ci / target_half_width is required"
        )
    s = summarize(samples, confidence)
    if target_half_width is not None:
        return s.ci_half_width > target_half_width
    return s.relative_ci > target_rel_ci


def summarize(
    samples: np.ndarray | list[float], confidence: float = 0.95
) -> StatSummary:
    """Mean, standard deviation and Student-t CI in one record."""
    arr = _validate(np.asarray(samples))
    lo, hi = confidence_interval(arr, confidence)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return StatSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )
