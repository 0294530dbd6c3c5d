"""Native event loop: build, load and drive the C kernel in ``native.c``.

:meth:`Simulator.run <repro.engine.simulator.Simulator.run>` hands a run
to the kernel when it is *eligible* — one instance with uniform process
weights (the ``_single`` path), the plain :class:`StorageModel`, no trace
sink and no profiler — and the kernel is loadable.  Everything else
(traced, profiled, colocated, weighted and custom-storage runs) stays on
the pure-Python loop, which also remains the reference: the kernel
performs the same floating-point operations in the same order, so both
loops produce the same bits.

Build
-----
The shared library is compiled with ``gcc -O2 -shared -fPIC
-ffp-contract=off`` (no ``-ffast-math``, no ``-march=native``: either
would change results) at most once per SHA-256 of (source, flags,
platform), into ``_native_cache/`` next to this file.  The object is
written under a temporary name and moved into place with an atomic
rename, so concurrent builders never see a partial file.  If ``gcc`` is
missing, the directory is read-only, or the library fails to load, the
engine silently uses the Python loop; :func:`load_error` says why.

Driving
-------
The kernel returns to Python for the rare work so that it has a single
source: a rate record for a runnable count not seen before
(``Simulator._sg_record``), a flush of its op-response and latency
buffers (replayed in order), and the guard errors, raised here with the
Python loop's messages.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

__all__ = ["kernel", "load_error", "run"]

_SOURCE = Path(__file__).with_name("native.c")
_CACHE = Path(__file__).with_name("_native_cache")
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# ns_run return codes (native.c); 0 means every thread is done
_RC_RECORD, _RC_FLUSH = 1, 2
_RC_MAX_STEPS, _RC_MAX_TIME, _RC_DEADLOCK, _RC_NOMEM = 3, 4, 5, 6

#: latency stream of each kernel latency code
_LAT_STREAMS = ("io_wait", "comm_wait", "barrier_wait")

#: PerfCounters float fields, in the kernel's ``counters[]`` order
_COUNTERS = (
    "busy_core_seconds", "useful_core_seconds", "sched_wait_seconds",
    "sched_events", "migrations", "wake_migrations", "cgroup_time",
    "ctx_switch_time", "migration_time", "background_time",
    "io_blocked_seconds", "comm_blocked_seconds", "barrier_blocked_seconds",
)

#: CompiledPrograms columns the kernel reads, with their dtypes
_TABLES = (
    ("seg_base", np.int64), ("kind", np.int8), ("work", np.float64),
    ("mem", np.float64), ("pp", np.float64), ("io_disk", np.bool_),
    ("io_base", np.float64), ("io_scale", np.float64),
    ("io_fixed", np.float64), ("io_net_dur", np.float64),
    ("io_extra", np.float64), ("io_wakemig", np.float64),
    ("io_irqs", np.int64), ("comm_dur", np.float64), ("bar_key", np.int32),
    ("mark_mask", np.bool_), ("mark_submit", np.float64),
)

#: Simulator per-thread arrays the kernel updates in place
_THREADS = (
    ("state", np.int8), ("remaining", np.float64), ("wake", np.float64),
    ("seg_ptr", np.int64), ("mem_int", np.float64),
    ("platform_penalty", np.float64), ("finish", np.float64),
    ("blocked_cause", np.int8), ("is_disk_io", np.bool_),
    ("barrier_enter", np.float64), ("pending_extra", np.float64),
    ("_gm", np.float64),
)

#: buffered op responses / latency observations that trigger a flush
_FLUSH_AT = 4096

# rate-record columns: _sg_record's tuple minus the timeslice (bucketed
# separately) and the raw share (unused by the single-group step)
_REC_N = 10


def _fields(names: str, ctype) -> list[tuple[str, object]]:
    return [(name, ctype) for name in names.split()]


_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class _Buf(ctypes.Structure):
    """Mirror of ``ns_buf``: a kernel-owned growable array of doubles."""

    _fields_ = [("v", _P), ("n", _I), ("cap", _I)]


class _State(ctypes.Structure):
    """Mirror of ``ns_state`` in ``native.c`` (same order, same types)."""

    _fields_ = (
        _fields("n_threads n_barriers", _I)
        + [(name, _P) for name, _ in _TABLES]
        + [(name.lstrip("_"), _P) for name, _ in _THREADS]
        + _fields("runnable bar_remaining", _P)
        + _fields("t max_time disk_conc gamma thrash p_mig ctx_cost cgsw", _D)
        + _fields(
            "n_done n_run outstanding_disk steps max_steps n_waiting "
            "need_record record_latency barrier_released",
            _I,
        )
        + [("counters", _D * len(_COUNTERS)), ("irqs", _I)]
        + _fields("rec rec_ok rec_bucket ts_weight ts_touched ts_order", _P)
        + _fields("n_ts_order", _I)
        + _fields("init_heap_t init_heap_id", _P)
        + _fields("n_init_heap", _I)
        + _fields("init_wait_bar init_wait_tid", _P)
        + _fields("n_init_wait flush_at", _I)
        + [("resp", _Buf), ("lat", _Buf * len(_LAT_STREAMS))]
        + [("lat_order", _I * len(_LAT_STREAMS)), ("n_lat_order", _I)]
        + _fields("heap_t heap_id", _P)
        + _fields("n_heap cap_heap", _I)
        + _fields("wait_head wait_tail wait_next run_idx", _P)
        + _fields("n_idx dirty", _I)
        + _fields("rate ttf fin due stack seen", _P)
    )


def _library_path() -> Path:
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(" ".join(_FLAGS).encode())
    digest.update(f"{sys.platform}-{os.uname().machine}".encode())
    return _CACHE / f"engine-{digest.hexdigest()[:20]}.so"


def _build(path: Path) -> None:
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found on PATH")
    _CACHE.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [gcc, *_FLAGS, "-o", str(tmp), str(_SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def _load() -> tuple[ctypes.CDLL | None, str]:
    """Build (on first use) and load the library: ``(lib, "")``, or
    ``(None, why)`` when that is not possible."""
    try:
        path = _library_path()
        if not path.is_file():
            _build(path)
        lib = ctypes.CDLL(str(path))
        lib.ns_state_size.argtypes = []
        lib.ns_state_size.restype = ctypes.c_int64
        if lib.ns_state_size() != ctypes.sizeof(_State):
            raise OSError("ns_state layout differs from native._State")
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    state = ctypes.POINTER(_State)
    for fn, restype in (
        (lib.ns_init, ctypes.c_int),
        (lib.ns_run, ctypes.c_int),
        (lib.ns_free, None),
    ):
        fn.argtypes = [state]
        fn.restype = restype
    return lib, ""


def kernel() -> ctypes.CDLL | None:
    """The kernel library, built on first use; ``None`` when it cannot be
    built or loaded (the engine then runs the Python loop)."""
    return _load()[0]


def load_error() -> str:
    """Why :func:`kernel` returned ``None`` (empty when it loaded)."""
    return _load()[1]


def _ptr(array: np.ndarray, dtype, size: int, name: str) -> int:
    """Address of ``array`` after checking what the kernel assumes of it."""
    if (
        array.dtype != dtype
        or array.shape != (size,)
        or not array.flags.c_contiguous
    ):
        raise TypeError(
            f"native loop needs a contiguous {np.dtype(dtype)} array of "
            f"{size} for {name!r}, got {array.dtype} {array.shape}"
        )
    return array.ctypes.data


def _take(buf: _Buf) -> list[float]:
    """Empty a kernel buffer into a list."""
    out = np.empty(buf.n)
    ctypes.memmove(out.ctypes.data, buf.v, out.nbytes)
    buf.n = 0
    return out.tolist()


class _Run:
    """One kernel run: the ``ns_state`` plus the Python-owned arrays it
    points into (kept alive here for the duration of the run)."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._keep: list[np.ndarray] = []
        c = sim._compiled
        n = sim.n_threads
        self.st = st = _State()
        st.n_threads = n
        st.n_barriers = len(c.bar_keys)
        for name, dtype in _TABLES:
            size = n + 1 if name == "seg_base" else c.n_segments
            setattr(st, name, _ptr(getattr(c, name), dtype, size, name))
        for name, dtype in _THREADS:
            setattr(
                st, name.lstrip("_"), _ptr(getattr(sim, name), dtype, n, name)
            )
        st.runnable = _ptr(sim._index.mask, np.bool_, n, "mask")
        self.bar_remaining = self._array(
            "bar_remaining",
            [sim.barrier_remaining[key] for key in c.bar_keys] or [0],
            np.int64,
        )

        st.t = sim.t
        st.max_time = sim.max_time
        st.disk_conc = sim._disk_conc
        st.gamma = sim._gamma
        st.thrash = sim._thrash0
        st.p_mig = sim._p_mig0
        st.ctx_cost = sim._ctx_cost
        st.cgsw = sim._cgsw0
        st.n_done = sim.n_done
        st.n_run = sim._index.count
        st.outstanding_disk = sim.outstanding_disk
        st.max_steps = sim.max_steps
        st.record_latency = sim._lat is not None
        st.flush_at = _FLUSH_AT
        cnt = sim.counters
        for k, name in enumerate(_COUNTERS):
            st.counters[k] = getattr(cnt, name)
        st.irqs = cnt.irqs

        self.rec = self._array("rec", np.zeros((n + 1, _REC_N)), np.float64)
        self.rec_ok = self._array("rec_ok", np.zeros(n + 1), np.bool_)
        self.rec_bucket = self._array("rec_bucket", np.zeros(n + 1), np.int64)
        self.ts_weight = self._array("ts_weight", np.zeros(n + 1), np.float64)
        self.ts_touched = self._array("ts_touched", np.zeros(n + 1), np.bool_)
        self.ts_order = self._array("ts_order", np.zeros(n + 1), np.int64)
        self.ts_keys: list[float] = []
        self.bucket_of: dict[float, int] = {}

        heap = sim._calendar._heap
        self._array("init_heap_t", [e[0] for e in heap], np.float64)
        self._array("init_heap_id", [e[1] for e in heap], np.int64)
        st.n_init_heap = len(heap)
        bar_of = {key: b for b, key in enumerate(c.bar_keys)}
        waiting = [
            (bar_of[key], tid)
            for key, tids in sim.barrier_waiters.items()
            for tid in tids
        ]
        self._array("init_wait_bar", [b for b, _ in waiting], np.int64)
        self._array("init_wait_tid", [j for _, j in waiting], np.int64)
        st.n_init_wait = len(waiting)

    def _array(self, field: str, values, dtype) -> np.ndarray:
        """A new array of ``values`` whose address goes to ``field``."""
        array = np.array(values, dtype=dtype)
        self._keep.append(array)
        setattr(self.st, field, array.ctypes.data)
        return array

    def add_record(self, n_run: int) -> None:
        """Hand the kernel the rate record for ``n_run`` runnable threads."""
        sim = self.sim
        rec = sim._sg_cache.get(n_run)
        if rec is None:
            rec = sim._sg_record(n_run)
        (cfac, mig, num, busy, ev, useful, steady, bg, migfac, ts,
         _share, wait) = rec
        self.rec[n_run] = (
            cfac, mig, num, busy, ev, useful, steady, bg, migfac, wait
        )
        # one bucket per timeslice-histogram key, seeded with any weight
        # the histogram already holds for it
        key = round(ts, 6)
        b = self.bucket_of.get(key)
        if b is None:
            hist = sim.counters.timeslice_weight
            b = self.bucket_of[key] = len(self.ts_keys)
            self.ts_keys.append(key)
            self.ts_weight[b] = hist.get(key, 0.0)
            self.ts_touched[b] = key in hist
        self.rec_bucket[n_run] = b
        self.rec_ok[n_run] = True

    def drain(self) -> None:
        """Replay the buffered op responses and latency observations."""
        st, sim = self.st, self.sim
        if st.resp.n:
            responses = _take(st.resp)
            sim.op_responses.extend(responses)
            sim.op_group.extend([0] * len(responses))
        # streams in order of first observation, as observe() would
        # create them; each keeps its values in order
        for k in st.lat_order[: st.n_lat_order]:
            sim._lat.extend(_LAT_STREAMS[k], _take(st.lat[k]))
        st.n_lat_order = 0

    def write_back(self) -> None:
        """Store what the Python loop keeps outside the shared arrays."""
        st, sim = self.st, self.sim
        sim.t = st.t
        sim.n_done = st.n_done
        sim.outstanding_disk = st.outstanding_disk
        bar_keys = sim._compiled.bar_keys
        for key, left in zip(bar_keys, self.bar_remaining.tolist()):
            sim.barrier_remaining[key] = left
        index = sim._index
        index.count = st.n_run
        index.group_counts[0] = st.n_run
        index._dirty = True
        cnt = sim.counters
        barrier_type = type(cnt.barrier_blocked_seconds)
        if st.barrier_released:
            # the Python loop accumulates ``t - barrier_enter[w]``, a numpy
            # scalar, so the counter it leaves behind is an np.float64
            barrier_type = np.float64
        for k, name in enumerate(_COUNTERS):
            setattr(cnt, name, st.counters[k])
        cnt.barrier_blocked_seconds = barrier_type(cnt.barrier_blocked_seconds)
        cnt.irqs = st.irqs
        hist = cnt.timeslice_weight
        for b, key in enumerate(self.ts_keys):
            if key in hist:
                hist[key] = float(self.ts_weight[b])
        # keys new to the histogram, in first-add order
        for b in self.ts_order[: st.n_ts_order].tolist():
            hist[self.ts_keys[b]] = float(self.ts_weight[b])


def run(sim, lib: ctypes.CDLL) -> None:
    """Advance ``sim`` to completion on the kernel.

    Leaves the simulator's arrays, clock, counters, op responses, barrier
    counts and runnable index as the Python loop would (its event
    calendar is not written back: nothing reads it after a run).  Guard
    trips raise the Python loop's :class:`SimulationError`.
    """
    r = _Run(sim)
    st = ctypes.byref(r.st)
    if lib.ns_init(st):
        raise MemoryError("native loop: cannot allocate its scratch space")
    try:
        while True:
            code = lib.ns_run(st)
            if code == _RC_RECORD:
                r.add_record(r.st.need_record)
                continue
            # nothing reads the replayed lists before the run ends, so
            # replaying only on flushes and at exit keeps their order
            r.drain()
            if code != _RC_FLUSH:
                break
    finally:
        lib.ns_free(st)
    r.write_back()

    if code == _RC_MAX_STEPS:
        raise sim._steps_error()
    if code == _RC_MAX_TIME:
        raise sim._time_error()
    if code == _RC_DEADLOCK:
        raise sim._deadlock_error(r.st.n_waiting)
    if code == _RC_NOMEM:
        raise MemoryError("native loop: out of memory")
