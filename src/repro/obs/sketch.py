"""Mergeable quantile sketches for streaming tail-latency telemetry.

The paper reports mean execution times; a production-scale campaign
cares about p99/p999 under load.  Raw per-operation latencies are far
too many to ship from worker processes to the coordinator, so each cell
folds its observations into a :class:`QuantileSketch` — a DDSketch-style
log-bucketed summary with a *relative* value-accuracy guarantee — and
the coordinator merges the per-cell sketches into campaign-wide
distributions.

Why log-bucketed counts rather than t-digest / KLL centroids: this
module promises that **merge order and worker partition never change the
result, byte for byte**.  Centroid-based sketches (t-digest, KLL) keep
insertion-order-dependent state — merging A⊕B and B⊕A yields different
centroids even though both answer quantile queries within bound — which
would make the campaign's serial and ``--jobs N`` legs diverge at
the byte level and break the ``cmp``-based determinism gates.
A DDSketch bucket map is a dict of *integer* counts keyed by
``ceil(log(v) / log(gamma))``: integer addition is exactly associative
and commutative, the min/max/zero/total fields are order-invariant, and
no float accumulation enters the canonical state.  The price is a fixed
relative accuracy ``alpha`` (bucket ``i`` covers ``(gamma^(i-1),
gamma^i]`` with ``gamma = (1+alpha)/(1-alpha)``) instead of t-digest's
adaptive extreme-quantile resolution — the right trade for a determinism
contract.

Determinism contract
--------------------
* :meth:`QuantileSketch.observe` and :meth:`~QuantileSketch.observe_many`
  compute bucket indices through the *same* numpy operations
  (``np.ceil(np.log(v) / log_gamma)``), so scalar and vectorized
  recording are bit-identical.
* :meth:`QuantileSketch.merge` is pure and exactly associative,
  commutative, and partition-invariant on serialized state.
* :meth:`QuantileSketch.serialize` is canonical: compact JSON with
  sorted keys — equal sketches serialize to equal bytes.

Only *simulated* quantities (operation responses, simulated IO / comm /
barrier waits, makespans) belong in sketches; wall-clock durations are
non-deterministic and stay in the journal's ``cell-finished`` events.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.errors import AnalysisError, ConfigurationError

__all__ = [
    "DEFAULT_ALPHA",
    "QuantileSketch",
    "LogHistogram",
    "LatencyRecorder",
    "merge_sketches",
    "merge_stream_sketches",
]

#: Default relative value accuracy of a :class:`QuantileSketch` (1 %).
DEFAULT_ALPHA = 0.01


class QuantileSketch:
    """A mergeable DDSketch-style quantile summary.

    Parameters
    ----------
    alpha:
        Relative value accuracy: any returned quantile ``est`` satisfies
        ``|est - exact| <= alpha * exact`` for the exact empirical
        quantile at the same rank (observations must be >= 0 and
        finite).

    State is four order-invariant scalars (total, zero count, min, max)
    plus a dict of integer bucket counts — see the module docstring for
    why this representation, and not a centroid sketch, backs the
    byte-identical merge guarantee.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not (0.0 < alpha < 1.0):
            raise ConfigurationError(
                f"sketch alpha must be in (0, 1), got {alpha}"
            )
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        # np.log here and in observe*: one code path for the scalar and
        # vectorized legs keeps bucket indices bit-identical.
        self._log_gamma = float(np.log(np.float64(self._gamma)))
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.total = 0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation (``value >= 0``, finite)."""
        v = float(value)
        if not (v >= 0.0) or math.isinf(v):  # NaN fails the comparison
            raise ConfigurationError(
                f"sketch observations must be finite and >= 0, got {value!r}"
            )
        self.total += 1
        if v == 0.0:
            self.zeros += 1
            return
        i = int(np.ceil(np.log(np.float64(v)) / self._log_gamma))
        self.buckets[i] = self.buckets.get(i, 0) + 1
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v

    def observe_many(self, values) -> None:
        """Record a batch of observations (bit-identical to a loop of
        :meth:`observe` over the same values, in any order)."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        # min/max double as the validation pass: NaN fails the >= 0
        # comparison, +inf shows up in the max — no bool temporaries.
        mn = float(v.min())
        mx = float(v.max())
        if not (mn >= 0.0) or math.isinf(mx):
            raise ConfigurationError(
                "sketch observations must be finite and >= 0"
            )
        self.total += int(v.size)
        if mn > 0.0:
            pos = v
        else:
            pos = v[v > 0.0]
            self.zeros += int(v.size - pos.size)
            if not pos.size:
                return
            mn = float(pos.min())
        idx = np.ceil(np.log(pos) / self._log_gamma).astype(np.int64)
        get = self.buckets.get
        if idx.size <= 256:
            # bucket adds are order-invariant integer sums, so a plain
            # loop lands on the same state as the np.unique path; for
            # the short per-repetition flushes it is markedly cheaper.
            for i in idx.tolist():
                self.buckets[i] = get(i, 0) + 1
        else:
            uniq, counts = np.unique(idx, return_counts=True)
            for i, c in zip(uniq.tolist(), counts.tolist()):
                self.buckets[i] = get(i, 0) + c
        if mn < self._min:
            self._min = mn
        if mx > self._max:
            self._max = mx

    # -- queries --------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self.total

    @property
    def minimum(self) -> float | None:
        """Smallest observation, or None when empty."""
        if self.total == 0:
            return None
        return 0.0 if self.zeros else self._min

    @property
    def maximum(self) -> float | None:
        """Largest observation, or None when empty."""
        if self.total == 0:
            return None
        return self._max if self.total > self.zeros else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (within ``alpha`` relative error).

        Raises :class:`~repro.errors.AnalysisError` on an empty sketch.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            raise AnalysisError("an empty sketch has no quantiles")
        rank = max(0, int(math.ceil(q * self.total)) - 1)
        if rank < self.zeros:
            return 0.0
        cum = self.zeros
        for i in sorted(self.buckets):
            cum += self.buckets[i]
            if rank < cum:
                # harmonic bucket midpoint; clamping into [min, max]
                # never leaves the bound (the exact value lies in both)
                try:
                    est = 2.0 * math.exp(i * self._log_gamma) / (self._gamma + 1.0)
                except OverflowError:  # pragma: no cover - huge values
                    est = math.inf
                return min(max(est, self._min), self._max)
        return self._max  # pragma: no cover - counts always reach total

    def quantiles(self, qs) -> list[float]:
        """:meth:`quantile` over a sequence of quantiles."""
        return [self.quantile(q) for q in qs]

    # -- merging --------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """A new sketch summarizing both inputs (pure; inputs untouched).

        Exactly associative, commutative, and partition-invariant:
        however a stream is split across workers and in whatever order
        the pieces are merged, the result serializes to the same bytes.
        """
        if not isinstance(other, QuantileSketch):
            raise ConfigurationError(
                f"cannot merge QuantileSketch with {type(other).__name__}"
            )
        if other.alpha != self.alpha:
            raise ConfigurationError(
                f"cannot merge sketches of different alpha "
                f"({self.alpha} vs {other.alpha})"
            )
        out = QuantileSketch(self.alpha)
        out.zeros = self.zeros + other.zeros
        out.total = self.total + other.total
        merged = dict(self.buckets)
        get = merged.get
        for i, c in other.buckets.items():
            merged[i] = get(i, 0) + c
        out.buckets = merged
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready state (inverse of :meth:`from_dict`)."""
        has_pos = self.total > self.zeros
        return {
            "alpha": self.alpha,
            "total": self.total,
            "zeros": self.zeros,
            "min": self._min if has_pos else None,
            "max": self._max if has_pos else None,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        out = cls(alpha=float(d["alpha"]))
        out.total = int(d["total"])
        out.zeros = int(d["zeros"])
        out.buckets = {int(i): int(c) for i, c in d.get("buckets", {}).items()}
        if d.get("min") is not None:
            out._min = float(d["min"])
            out._max = float(d["max"])
        return out

    def serialize(self) -> bytes:
        """Canonical bytes: compact JSON, sorted keys.  Equal sketch
        states — however they were accumulated — serialize equal."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("ascii")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.serialize() == other.serialize()

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, n={self.total}, "
            f"buckets={len(self.buckets)})"
        )


def merge_sketches(sketches) -> QuantileSketch:
    """Merge an iterable of sketches (raises on an empty iterable)."""
    merged: QuantileSketch | None = None
    for s in sketches:
        merged = s if merged is None else merged.merge(s)
    if merged is None:
        raise AnalysisError("cannot merge zero sketches")
    return merged


def merge_stream_sketches(dicts) -> dict[str, QuantileSketch]:
    """Merge per-stream sketch dicts (e.g. one per repetition) into one
    ``{stream: sketch}`` map covering the union of streams."""
    out: dict[str, QuantileSketch] = {}
    for d in dicts:
        for name, sketch in d.items():
            have = out.get(name)
            out[name] = sketch if have is None else have.merge(sketch)
    return {name: out[name] for name in sorted(out)}


class LogHistogram:
    """A streaming histogram over fixed log-spaced bucket edges.

    The fixed-resolution companion to :class:`QuantileSketch`: where the
    sketch guarantees relative quantile accuracy with unbounded range,
    the histogram trades range (``[lo, hi]`` plus underflow / overflow
    buckets) for a dense cumulative view — CDF curves, bucket dumps —
    at ``bins_per_decade`` resolution.  Merging requires identical
    parameters; counts are integers, so merges are exactly order- and
    partition-invariant like the sketch's.
    """

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 1e4,
        bins_per_decade: int = 10,
    ) -> None:
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise ConfigurationError(
                f"need 0 < lo < hi (finite), got lo={lo} hi={hi}"
            )
        if bins_per_decade < 1:
            raise ConfigurationError(
                f"bins_per_decade must be >= 1, got {bins_per_decade}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins_per_decade = int(bins_per_decade)
        decades = math.log10(self.hi) - math.log10(self.lo)
        n_edges = int(round(decades * self.bins_per_decade)) + 1
        if n_edges < 2:
            raise ConfigurationError(
                f"[lo, hi] = [{lo}, {hi}] spans no full bin at "
                f"{bins_per_decade} bins/decade"
            )
        self._edges = np.logspace(
            math.log10(self.lo), math.log10(self.hi), n_edges
        )
        # counts[0] = underflow (v <= lo), counts[-1] = overflow (v > hi)
        self.counts = np.zeros(n_edges + 1, dtype=np.int64)

    @property
    def edges(self) -> np.ndarray:
        """Bucket edges (read-only view)."""
        return self._edges

    @property
    def total(self) -> int:
        """Number of recorded observations."""
        return int(self.counts.sum())

    def observe(self, value: float) -> None:
        """Record one observation (``value >= 0``, finite)."""
        self.observe_many([value])

    def observe_many(self, values) -> None:
        """Record a batch of observations."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        if not np.all(np.isfinite(v)) or bool((v < 0.0).any()):
            raise ConfigurationError(
                "histogram observations must be finite and >= 0"
            )
        idx = np.searchsorted(self._edges, v, side="left")
        np.add.at(self.counts, idx, 1)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """A new histogram summarizing both inputs (pure)."""
        if not isinstance(other, LogHistogram):
            raise ConfigurationError(
                f"cannot merge LogHistogram with {type(other).__name__}"
            )
        if (self.lo, self.hi, self.bins_per_decade) != (
            other.lo, other.hi, other.bins_per_decade
        ):
            raise ConfigurationError(
                "cannot merge histograms with different edges"
            )
        out = LogHistogram(self.lo, self.hi, self.bins_per_decade)
        out.counts = self.counts + other.counts
        return out

    def cdf(self) -> list[tuple[float, float]]:
        """Cumulative fractions at each edge: ``(edge, P[X <= edge])``.

        The overflow bucket's mass appears only in the trailing total,
        so the last point reaches 1.0 exactly when nothing overflowed.
        """
        total = self.total
        if total == 0:
            raise AnalysisError("an empty histogram has no CDF")
        cum = np.cumsum(self.counts[:-1])
        return [
            (float(e), float(c) / total)
            for e, c in zip(self._edges, cum.tolist())
        ]

    def to_dict(self) -> dict:
        """JSON-ready state: parameters plus counts (edges are derived
        from the parameters, keeping the serialization canonical)."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins_per_decade": self.bins_per_decade,
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogHistogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        out = cls(
            lo=float(d["lo"]),
            hi=float(d["hi"]),
            bins_per_decade=int(d["bins_per_decade"]),
        )
        counts = np.asarray(d["counts"], dtype=np.int64)
        if counts.shape != out.counts.shape:
            raise ConfigurationError(
                f"histogram counts length {counts.size} does not match "
                f"{out.counts.size} buckets for these parameters"
            )
        out.counts = counts
        return out

    def serialize(self) -> bytes:
        """Canonical bytes (compact JSON, sorted keys)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("ascii")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return self.serialize() == other.serialize()


class LatencyRecorder:
    """Collects named latency streams from one engine run into sketches.

    The engine's hot paths call :meth:`observe`, which only appends to a
    plain list — the log/bucket work happens once per stream in
    :meth:`sketches` (vectorized, and bit-identical to folding the same
    values one at a time, in any order).  Detached (``None`` on the
    engine) the recording cost is one ``is not None`` check per issue.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = float(alpha)
        self._pending: dict[str, list[float]] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    def observe(self, stream: str, value: float) -> None:
        """Buffer one observation on ``stream`` (hot path)."""
        pending = self._pending.get(stream)
        if pending is None:
            pending = self._pending[stream] = []
        pending.append(float(value))

    def extend(self, stream: str, values) -> None:
        """Buffer ``values`` on ``stream`` in order: the same state as
        calling :meth:`observe` for each of them."""
        pending = self._pending.get(stream)
        if pending is None:
            pending = self._pending[stream] = []
        pending.extend(map(float, values))

    def observe_many(self, stream: str, values) -> None:
        """Fold a batch of observations straight into ``stream``."""
        self.sketch(stream).observe_many(values)

    def sketch(self, stream: str) -> QuantileSketch:
        """The (flushed) sketch of one stream, created on first use."""
        sk = self._sketches.get(stream)
        if sk is None:
            sk = self._sketches[stream] = QuantileSketch(self.alpha)
        pending = self._pending.pop(stream, None)
        if pending:
            sk.observe_many(pending)
        return sk

    def sketches(self) -> dict[str, QuantileSketch]:
        """All streams, flushed, in sorted-name order.  Streams that
        buffered no observations yield empty sketches."""
        for stream in list(self._pending):
            self.sketch(stream)
        return {name: self._sketches[name] for name in sorted(self._sketches)}

    def to_dict(self) -> dict:
        """JSON-ready ``{stream: sketch state}`` map."""
        return {
            name: sk.to_dict() for name, sk in self.sketches().items()
        }
