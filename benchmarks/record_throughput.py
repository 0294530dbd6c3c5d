"""Record or check the engine-throughput baseline.

Times the four engine-bound workload runs tracked by
``bench_engine_perf.py`` (best-of-N wall clock each, same seeds) and
either updates ``benchmarks/results/engine_throughput.json`` or checks
the current engine against the committed numbers.

Usage::

    # re-record the baseline after an intentional perf change
    PYTHONPATH=src python benchmarks/record_throughput.py --key after

    # CI regression gate: fail when any case is > 2x slower than the
    # committed "after" numbers (non-zero exit), write timings for the
    # artifact upload
    PYTHONPATH=src python benchmarks/record_throughput.py \
        --check --tolerance 2.0 --out /tmp/engine_timings.json

The baseline file keeps ``before``/``after`` seconds per case so the
speedup of the compiled-tables refactor stays documented alongside the
numbers the gate compares against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import (
    CassandraWorkload,
    FfmpegWorkload,
    WordPressWorkload,
    instance_type,
    make_platform,
    r830_host,
    run_once,
)
from repro.rng import RngFactory

BASELINE = Path(__file__).parent / "results" / "engine_throughput.json"

CASES = {
    "ffmpeg": (lambda: FfmpegWorkload(), "xLarge"),
    "wordpress": (lambda: WordPressWorkload(), "xLarge"),
    "cassandra": (lambda: CassandraWorkload(), "xLarge"),
    "multitask": (lambda: FfmpegWorkload().split(30), "4xLarge"),
}

def time_case(name: str, reps: int = 3) -> float:
    """Best-of-``reps`` wall clock of one engine-bound run."""
    make_wl, inst = CASES[name]
    platform = make_platform("CN", instance_type(inst), "vanilla")
    host = r830_host()
    best = float("inf")
    for _ in range(reps):
        wl = make_wl()
        rng = RngFactory().fresh_stream("perf")
        t0 = time.perf_counter()
        run_once(wl, platform, host, rng=rng)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--key",
        default="after",
        choices=("before", "after"),
        help="which baseline slot to update (record mode)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed 'after' numbers instead of recording",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="check mode: fail when measured / baseline exceeds this ratio",
    )
    ap.add_argument(
        "--reps", type=int, default=3, help="timing repetitions per case"
    )
    ap.add_argument(
        "--out", type=Path, default=None, help="also write measured timings here"
    )
    args = ap.parse_args()

    measured = {}
    for name in CASES:
        measured[name] = time_case(name, reps=args.reps)
        print(f"{name:10s} {measured[name]:.4f}s")

    if args.out:
        args.out.write_text(json.dumps(measured, indent=2, sort_keys=True))
        print(f"timings -> {args.out}")

    if args.check:
        baseline = json.loads(BASELINE.read_text())
        failed = False
        for name, seconds in measured.items():
            ref = baseline["cases"][name]["after_s"]
            ratio = seconds / ref
            status = "ok" if ratio <= args.tolerance else "REGRESSION"
            print(f"{name:10s} {seconds:.4f}s vs baseline {ref:.4f}s "
                  f"(x{ratio:.2f}) {status}")
            if ratio > args.tolerance:
                failed = True
        if failed:
            print(f"FAIL: case(s) slower than {args.tolerance}x the committed "
                  f"baseline ({BASELINE})", file=sys.stderr)
            return 1
        print("engine throughput within tolerance")
        return 0

    # record mode: merge into the committed baseline
    data = (
        json.loads(BASELINE.read_text()) if BASELINE.exists() else {"cases": {}}
    )
    cases = data.setdefault("cases", {})
    for name, seconds in measured.items():
        slot = cases.setdefault(name, {})
        slot[f"{args.key}_s"] = round(seconds, 4)
        if "before_s" in slot and "after_s" in slot:
            slot["speedup"] = round(slot["before_s"] / slot["after_s"], 2)
    data["note"] = (
        "Engine wall clock per run (best of 3, seeds fixed); before = "
        "interpreted per-segment engine, after = compiled tables + event "
        "calendar. Re-record with benchmarks/record_throughput.py --key "
        "after."
    )
    BASELINE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"baseline -> {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
