"""Program compiler: columnar segment tables for the engine hot path.

Everything the engine needs to know about a segment is a pure function
of the thread programs and the deployment's overhead constants, so it is
evaluated once, up front.  :func:`compile_programs` flattens every
thread's segment list into one set of columnar numpy tables indexed by
``seg_base[tid] + seg_ptr``:

* ``kind`` — segment kind code (:data:`KIND_COMPUTE` … :data:`KIND_BARRIER`);
* compute columns — ``work``, ``mem`` and the *precomputed* per-group
  platform penalty ``pp``;
* IO columns — write-penalty-adjusted device time, the fully precomputed
  duration of network IO, the group's IO scale factor, the fixed IRQ
  latency term, IRQ counts and the expected re-warm work / wake-migration
  increments per issue;
* comm columns — the fully precomputed exchange duration (local or
  remote path);
* barrier columns — an index into the interned rendezvous-key table;
* mark columns — a boolean mask plus submission times for marked
  operations, replacing per-thread dict lookups.

The compile is column-wise.  One pass over the flattened segments maps
each row to its kind code; then, kind by kind, the rows' attributes are
gathered into lists and every column is computed with numpy over those
rows at once.  Each element is the IEEE result of the expression a
per-row compile evaluates, on the same operands in the same order
(``scale = io_factor[g] * thrash[g]``, ``fixed = irqs * irq_latency[g]``,
network IO ``device * scale + fixed``, ...): numpy's elementwise
arithmetic is the same double-precision arithmetic as the scalar
expression, so the tables are bit-for-bit those of the per-row compile
that ``tests/test_build_compile_oracle.py`` keeps as the reference.
Platform compute penalties are evaluated once per distinct
``(group, mem_intensity, kernel_share)`` and remote transfers once per
remote row.  Barrier keys are interned in first-appearance order, which
fixes ``bar_keys`` and the insertion order of ``barrier_participants``.

Python-list mirrors of the hot columns (``kind_l``, ``work_l``, ...) are
built on first access: the Python advance path reads single elements,
and plain ``float`` access through a list is several times faster than
numpy scalar indexing while remaining IEEE-identical.  The native loop
reads the numpy columns directly, so its runs never build them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.hostmodel.irq import IrqKind
from repro.hostmodel.network import NetworkModel
from repro.hostmodel.storage import StorageModel
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    IoSegment,
    Segment,
)

__all__ = [
    "KIND_COMPUTE",
    "KIND_IO",
    "KIND_COMM",
    "KIND_BARRIER",
    "CompiledPrograms",
    "compile_programs",
]

# segment kind codes (values stored in CompiledPrograms.kind)
KIND_COMPUTE = 0
KIND_IO = 1
KIND_COMM = 2
KIND_BARRIER = 3


@dataclass
class CompiledPrograms:
    """Columnar tables over all segments of all threads.

    Segment ``p`` of thread ``tid`` lives at flat row
    ``seg_base[tid] + p``; a thread's rows are contiguous and
    ``seg_count[tid]`` long.  Columns not applicable to a row's kind hold
    zeros.  ``<column>_l`` is a Python-list mirror of a numpy column for
    fast scalar access, built on first use.
    """

    n_threads: int
    n_segments: int
    seg_base: np.ndarray  # int64, n_threads + 1 (prefix offsets)
    seg_count: np.ndarray  # int64, n_threads
    kind: np.ndarray  # int8
    work: np.ndarray  # float64: compute core-seconds
    mem: np.ndarray  # float64: compute mem_intensity
    pp: np.ndarray  # float64: per-group platform compute penalty
    io_disk: np.ndarray  # bool
    io_base: np.ndarray  # float64: device time, write penalty applied
    io_raw: np.ndarray  # float64: unscaled device time (custom storage)
    io_write: np.ndarray  # bool: disk IO is a write
    io_net_dur: np.ndarray  # float64: full duration of non-disk IO
    io_scale: np.ndarray  # float64: io_factor * thrash of the group
    io_fixed: np.ndarray  # float64: irqs * irq_latency of the group
    io_irqs: np.ndarray  # int64
    io_extra: np.ndarray  # float64: irqs * wake_extra_work of the group
    io_wakemig: np.ndarray  # float64: irqs * wake_migration_probability
    comm_dur: np.ndarray  # float64: full exchange duration
    bar_key: np.ndarray  # int32: index into bar_keys (-1 otherwise)
    bar_keys: list[tuple[int, int]]
    mark_mask: np.ndarray  # bool: segment completes a marked operation
    mark_submit: np.ndarray  # float64: submission time of the mark
    barrier_participants: dict[tuple[int, int], int] = field(
        default_factory=dict
    )

    def __getattr__(self, name: str):
        # Python-list mirror ``<column>_l``, built on first access
        column = name[:-2]
        if name.endswith("_l") and column in _MIRRORED:
            mirror = getattr(self, column).tolist()
            setattr(self, name, mirror)
            return mirror
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


#: numpy columns with a lazily built ``<column>_l`` list mirror
_MIRRORED = frozenset(
    (
        "seg_base", "kind", "work", "mem", "pp", "io_disk", "io_base",
        "io_raw", "io_write", "io_net_dur", "io_scale", "io_fixed",
        "io_irqs", "io_extra", "io_wakemig", "comm_dur", "bar_key",
        "mark_mask", "mark_submit",
    )
)


def compile_programs(
    programs: list[list[Segment]],
    proc_of: list[int],
    group_of: list[int],
    op_marks: dict[int, dict[int, float]],
    deployments: list,
    *,
    storage: StorageModel,
    network: NetworkModel,
    g_wake_extra: np.ndarray,
    g_p_wake: np.ndarray,
    g_irq_latency: np.ndarray,
    g_io_factor: np.ndarray,
    g_thrash: np.ndarray,
    g_comm_factor: np.ndarray,
    g_net_factor: np.ndarray,
) -> CompiledPrograms:
    """Flatten thread programs into :class:`CompiledPrograms`.

    The per-group overhead scalars are taken as arguments (rather than
    recomputed) so the compiled values multiply exactly the operands a
    per-event evaluation multiplies.
    """
    n = len(programs)
    counts = np.fromiter(map(len, programs), dtype=np.int64, count=n)
    seg_base = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_base[1:])
    total = int(seg_base[n])
    segs = np.fromiter(chain.from_iterable(programs), dtype=object, count=total)
    kind = np.fromiter(
        map(_KIND_OF.__getitem__, map(type, segs)), dtype=np.int8, count=total
    )
    # owning thread's group of every row
    group = np.repeat(np.asarray(group_of, dtype=np.int64), counts)

    # one kind at a time, each allocating its own columns: the peak is
    # then the finished columns plus one kind's temporaries
    rows = np.flatnonzero(kind == KIND_COMPUTE)
    work, mem, pp = _compute_columns(total, rows, segs[rows], group[rows], deployments)
    rows = np.flatnonzero(kind == KIND_BARRIER)
    pidx = np.repeat(np.asarray(proc_of, dtype=np.int64), counts)[rows]
    bar_key, bar_keys, participants = _barrier_columns(
        total, rows, segs[rows], pidx
    )
    rows = np.flatnonzero(kind == KIND_IO)
    io = _io_columns(
        total, rows, segs[rows], group[rows], storage.write_penalty,
        g_io_factor * g_thrash, g_irq_latency, g_wake_extra, g_p_wake,
    )
    rows = np.flatnonzero(kind == KIND_COMM)
    comm_dur = _comm_columns(
        total, rows, segs[rows], group[rows], network, g_comm_factor,
        g_net_factor,
    )
    del segs
    mark_mask, mark_submit = _mark_columns(total, seg_base, op_marks)

    return CompiledPrograms(
        n_threads=n,
        n_segments=total,
        seg_base=seg_base,
        seg_count=counts,
        kind=kind,
        work=work,
        mem=mem,
        pp=pp,
        **io,
        comm_dur=comm_dur,
        bar_key=bar_key,
        bar_keys=bar_keys,
        mark_mask=mark_mask,
        mark_submit=mark_submit,
        barrier_participants=participants,
    )


def _compute_columns(
    total: int,
    rows: np.ndarray,
    sel: np.ndarray,
    group: np.ndarray,
    deployments: list,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``work``, ``mem`` and the platform penalty ``pp``.

    The penalty is pure in ``(group, mem_intensity, kernel_share)``, so
    it is evaluated once per distinct triple, on the attribute values of
    the triple's first row (``np.unique``'s ``return_index`` is the first
    occurrence), exactly as a per-row memo would.
    """
    work = np.zeros(total)
    mem = np.zeros(total)
    pp = np.zeros(total)
    work[rows] = [s.work for s in sel]
    mem[rows] = [s.mem_intensity for s in sel]
    pair = np.empty(len(sel), dtype=np.complex128)  # (mem, kernel) as one key
    pair.real = mem[rows]
    pair.imag = [s.kernel_share for s in sel]
    for g in np.unique(group).tolist():
        in_g = np.flatnonzero(group == g)
        _, first, inverse = np.unique(
            pair[in_g], return_index=True, return_inverse=True
        )
        overhead = deployments[g].overhead
        values = [
            overhead.platform.compute_penalty(
                overhead.calib, seg.mem_intensity, seg.kernel_share
            )
            for seg in sel[in_g[first]]
        ]
        pp[rows[in_g]] = np.array(values, dtype=np.float64)[inverse]
    return work, mem, pp


def _io_columns(
    total: int,
    rows: np.ndarray,
    sel: np.ndarray,
    group: np.ndarray,
    write_penalty: float,
    g_scale: np.ndarray,
    g_irq_latency: np.ndarray,
    g_wake_extra: np.ndarray,
    g_p_wake: np.ndarray,
) -> dict[str, np.ndarray]:
    """The ``io_*`` columns: the per-issue IO terms, with
    ``g_scale = io_factor * thrash`` per group."""
    io_disk = np.zeros(total, dtype=bool)
    io_base = np.zeros(total)
    io_raw = np.zeros(total)
    io_write = np.zeros(total, dtype=bool)
    io_net_dur = np.zeros(total)
    io_scale = np.zeros(total)
    io_fixed = np.zeros(total)
    io_irqs = np.zeros(total, dtype=np.int64)
    io_extra = np.zeros(total)
    io_wakemig = np.zeros(total)
    device = np.array([s.device_time for s in sel], dtype=np.float64)
    # float, like the scalar products; the io_irqs store truncates
    irqs = np.array([s.irqs for s in sel], dtype=np.float64)
    disk = np.array([s.kind is IrqKind.DISK for s in sel], dtype=bool)
    write = np.array([bool(s.is_write) for s in sel], dtype=bool)
    scale = g_scale[group]
    fixed = irqs * g_irq_latency[group]
    io_disk[rows] = disk
    io_scale[rows] = scale
    io_fixed[rows] = fixed
    io_irqs[rows] = irqs
    io_extra[rows] = irqs * g_wake_extra[group]
    io_wakemig[rows] = irqs * g_p_wake[group]
    d = rows[disk]
    io_base[d] = device[disk] * np.where(write[disk], write_penalty, 1.0)
    io_raw[d] = device[disk]
    io_write[d] = write[disk]
    net = ~disk
    io_net_dur[rows[net]] = device[net] * scale[net] + fixed[net]
    return dict(
        io_disk=io_disk,
        io_base=io_base,
        io_raw=io_raw,
        io_write=io_write,
        io_net_dur=io_net_dur,
        io_scale=io_scale,
        io_fixed=io_fixed,
        io_irqs=io_irqs,
        io_extra=io_extra,
        io_wakemig=io_wakemig,
    )


def _comm_columns(
    total: int,
    rows: np.ndarray,
    sel: np.ndarray,
    group: np.ndarray,
    network: NetworkModel,
    g_comm_factor: np.ndarray,
    g_net_factor: np.ndarray,
) -> np.ndarray:
    """``comm_dur``: local exchanges through the platform's comm path,
    remote ones through its network stack plus the message transfer."""
    comm_dur = np.zeros(total)
    latency = np.array([s.base_latency for s in sel], dtype=np.float64)
    cpu = np.array([s.cpu_work for s in sel], dtype=np.float64)
    remote = np.array([bool(s.remote) for s in sel], dtype=bool)
    local = ~remote
    comm_dur[rows[local]] = (
        latency[local] * g_comm_factor[group[local]] + cpu[local]
    )
    factor = g_net_factor[group[remote]]
    transfer = [
        network.transfer_time(seg.message_bytes, stack_factor=f)
        for seg, f in zip(sel[remote], factor)
    ]
    comm_dur[rows[remote]] = (latency[remote] * factor + cpu[remote]) + np.array(
        transfer, dtype=np.float64
    )
    return comm_dur


def _barrier_columns(
    total: int, rows: np.ndarray, sel: np.ndarray, pidx: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]], dict[tuple[int, int], int]]:
    """``bar_key``, ``bar_keys`` and the participant count of each key.

    A rendezvous key is ``(namespace, barrier_id)``: global barriers
    share namespace -1, the others meet per process ``pidx``.  Keys are
    interned in first-appearance order.  Builders share one frozen
    barrier object among many threads, so the attributes are read, and
    equal ids interned, once per distinct object; no Python code runs
    per row.
    """
    bar_key = np.full(total, -1, dtype=np.int32)
    _, first, obj = np.unique(
        np.fromiter(map(id, sel), dtype=np.uint64, count=len(sel)),
        return_index=True,
        return_inverse=True,
    )
    id_code: dict = {}
    codes = []
    scopes = []
    for seg in sel[first]:
        codes.append(id_code.setdefault(seg.barrier_id, len(id_code)))
        scopes.append(seg.scope == "global")
    namespace = np.where(np.array(scopes, dtype=bool)[obj], -1, pidx)
    key = (namespace + 1) * len(id_code) + np.array(codes, dtype=np.int64)[obj]
    _, first, inverse, count = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    bar_key[rows] = rank[inverse]
    first = first[order]
    keys = [
        (ns, seg.barrier_id)
        for ns, seg in zip(namespace[first].tolist(), sel[first])
    ]
    return bar_key, keys, dict(zip(keys, count[order].tolist()))


def _mark_columns(
    total: int, seg_base: np.ndarray, op_marks: dict[int, dict[int, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """``mark_mask`` and ``mark_submit``; out-of-range marks are ignored."""
    mark_mask = np.zeros(total, dtype=bool)
    mark_submit = np.zeros(total)
    rows: list[int] = []
    submitted: list[float] = []
    bases = seg_base.tolist()
    for tid, marks in op_marks.items():
        if not 0 <= tid < len(bases) - 1:
            continue
        base = bases[tid]
        count = bases[tid + 1] - base
        for seg_index, at in marks.items():
            if 0 <= seg_index < count:
                rows.append(base + seg_index)
                submitted.append(at)
    mark_mask[rows] = True
    mark_submit[rows] = submitted
    return mark_mask, mark_submit


class _KindCodes(dict):
    """Segment type -> kind code.  A type not listed resolves like an
    ``isinstance`` chain; anything else compiles as a barrier."""

    def __missing__(self, cls: type) -> int:
        for base, code in self.items():
            if issubclass(cls, base):
                return code
        return KIND_BARRIER


_KIND_OF = _KindCodes(
    {
        ComputeSegment: KIND_COMPUTE,
        IoSegment: KIND_IO,
        CommSegment: KIND_COMM,
        BarrierSegment: KIND_BARRIER,
    }
)
