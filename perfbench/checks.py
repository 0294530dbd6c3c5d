"""Seed-independent output checks, one set per workload.

Each check is an ordering the paper reports and ``tests/test_paper_findings.py``
asserts, phrased so that it holds on any seed at the benchmark's size:
the model's random draws move the bars a little, never the orderings.
The knee checks read the knee JSON back from the written file.

Each function returns a list of failure messages (empty when correct).
"""

from __future__ import annotations

import json
from pathlib import Path


def _ratios(sweep, label):
    from repro.analysis.overhead import overhead_ratios

    return [float(r) for r in overhead_ratios(sweep, label)]


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _expect(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_compute(result) -> list[str]:
    f: list[str] = []
    fig3, fig4 = result.sweep("fig3"), result.sweep("fig4")
    vm = _ratios(fig3, "Vanilla VM")
    _expect(f, min(vm) >= 1.9, f"fig3: Vanilla VM ratio >= 1.9 everywhere, got {vm}")
    cn = _ratios(fig3, "Vanilla CN")
    _expect(f, _decreasing(cn), f"fig3: Vanilla CN ratio falls with size, got {cn}")
    _expect(f, cn[0] > 1.3 and cn[-1] < 1.1,
            f"fig3: Vanilla CN ratio > 1.3 at Large, < 1.1 at 4xLarge, got {cn}")
    pinned = _ratios(fig3, "Pinned CN")
    _expect(f, max(pinned) < 1.05, f"fig3: Pinned CN ~ BM (< 1.05), got {pinned}")
    vm4 = _ratios(fig4, "Vanilla VM")
    _expect(f, vm4[0] > 1.4 and vm4[-1] < 1.1,
            f"fig4: VM overhead vanishes at scale, got {vm4}")
    cn4, vmcn4 = fig4.means("Vanilla CN"), fig4.means("Vanilla VMCN")
    _expect(f, all(a >= b for a, b in zip(cn4, vmcn4)),
            "fig4: Vanilla CN at least Vanilla VMCN at every size")
    fig7 = result.fig7
    _expect(f, fig7[("112 cores", "Vanilla CN")].mean
            > fig7[("16 cores", "Vanilla CN")].mean,
            "fig7: lower CHR (112-core host) is slower for Vanilla CN")
    fig8 = {k: v.mean for k, v in result.fig8.items()}
    gap_30 = fig8[("30 Small Tasks", "vanilla")] / fig8[("30 Small Tasks", "pinned")]
    gap_1 = fig8[("1 Large Task", "vanilla")] / fig8[("1 Large Task", "pinned")]
    _expect(f, gap_30 > gap_1 and gap_30 > 1.4,
            f"fig8: multitasking widens the vanilla/pinned gap, got {gap_1:.3f} -> {gap_30:.3f}")
    return f


def check_io(result) -> list[str]:
    f: list[str] = []
    fig5, fig6 = result.sweep("fig5"), result.sweep("fig6")
    cn5 = _ratios(fig5, "Vanilla CN")
    _expect(f, cn5[0] > 1.7 and cn5[-1] < 1.1,
            f"fig5: Vanilla CN ~2x BM at xLarge, ~BM at 16xLarge, got {cn5}")
    pinned5 = _ratios(fig5, "Pinned CN")
    _expect(f, max(pinned5) <= 1.02, f"fig5: Pinned CN lowest (<= 1.02), got {pinned5}")
    cn6 = _ratios(fig6, "Vanilla CN")
    _expect(f, cn6[0] > 2.8 and _decreasing(cn6),
            f"fig6: Vanilla CN > 2.8x at xLarge and falling with size, got {cn6}")
    _expect(f, cn6[0] > cn5[0], "fig6: Cassandra CN overhead above WordPress's")
    pinned6 = _ratios(fig6, "Pinned CN")
    _expect(f, max(pinned6[:3]) < 1.0, f"fig6: Pinned CN beats BM to 4xLarge, got {pinned6}")
    bands = result.chr_bands
    _expect(f, bands["WordPress"].high <= bands["Cassandra"].high,
            "chr: Cassandra needs at least WordPress's CHR")
    return f


def check_knees(knee_path: Path) -> list[str]:
    f: list[str] = []
    doc = json.loads(knee_path.read_text())
    name = doc["workload"]
    # The cgroups tax: Vanilla CN answers slower than Pinned CN at every
    # offered load.
    p99 = {p: [pt["p99"] for pt in d["curve"]] for p, d in doc["platforms"].items()}
    _expect(f, all(v > q for v, q in zip(p99["Vanilla CN"], p99["Pinned CN"])),
            f"{name}: p99 of Vanilla CN above Pinned CN at every rate, got {p99}")
    # On WordPress pinning also moves the knee right.  The knee is relative
    # to each platform's own unloaded p99, so on Cassandra, whose every
    # platform saturates early, Vanilla CN's high unloaded p99 can put its
    # knee a rung later than Pinned CN's.  (Pinned CN knees with BM on the
    # default seed only: on others it can knee a rung later than BM.)
    if name == "wordpress":
        knees = {p: d["knee_rate"] for p, d in doc["platforms"].items()}
        top = max(doc["rates"]) * 2
        k = {p: top if v is None else v for p, v in knees.items()}
        _expect(f, k["Vanilla CN"] < k["Pinned CN"],
                f"wordpress: pinning moves the knee right, got {knees}")
    return f


def check_outputs(workload: str, legs, results, out: Path) -> list[str]:
    """All checks of one workload's run; ``results`` are the campaign
    results of ``legs`` in order, ``out`` holds the written files."""
    failures: list[str] = []
    for leg, res in zip(legs, results):
        if leg.is_loadcurve:
            failures += check_knees(out / leg.filenames()[1])
        elif workload == "paper-compute":
            failures += check_compute(res)
        else:
            failures += check_io(res)
    return failures
