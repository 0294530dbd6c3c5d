"""The repo benchmark: default-campaign host time, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-compute --seed 1 --seconds 30 --trace 0

Each campaign runs in a fresh interpreter (``perfbench/worker.py``)
through the public API: ``Campaign(seed=...)``, ``run_campaign`` with the
default executor (``jobs=1``, scalar engine, no cache, journal, dist or
trace) and ``generate_report`` / ``knee_json``.

``--trace 0`` repeats the campaign in fresh processes for ``--seconds``
seconds (at least once), adds set-up-only processes, and reports the
end-to-end metrics as medians.  ``--trace 1`` runs the campaign once
untraced and once with spans around every layer entry point, and reports
the per-layer metrics of the traced run.  Either way the outputs are
checked (see ``checks.py``, ``reference.json``) and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every ``*_s`` figure is host time; every ``sim_*`` figure is simulated
and repeats exactly.  The program is built (byte-compiled) from ``src/``
of the checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from instrument import LAYERS, self_times  # noqa: E402
from speed import NOMINAL_S  # noqa: E402
from workloads import EXPECTED_CELLS, WORKLOADS  # noqa: E402

#: Set-up-only interpreters started per ``--trace 0`` run, on top of the
#: campaign workers' own set-up.
SETUP_PROBES = 3
#: Wall-clock budget of one invocation; workers are killed past it.
BUDGET_S = 170.0
#: Cell-time percentiles: the median, and the highest percentile with at
#: least 10 cells beyond it on the smallest workload (60 cells).
CELL_PCTS = (50, 80)


class BenchError(Exception):
    """The benchmark cannot run here (not a failure of the program)."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def build() -> None:
    """Byte-compile the program so set-up time never includes it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise BenchError(f"byte-compiling {SRC} failed:\n{done.stderr}")


class Runner:
    """Starts workers, one fresh interpreter each, and collects results."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.n = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            TMPDIR=str(work / "tmp"),
        )
        (work / "tmp").mkdir(parents=True, exist_ok=True)

    def worker(self, *flags: str) -> dict:
        self.n += 1
        out = self.work / f"w{self.n}"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--out", str(out), *flags,
        ]
        if self.args.tiny:
            cmd.append("--tiny")
        log = self.work / f"w{self.n}.log"
        t_spawn = time.monotonic()
        try:
            with open(log, "w") as fh:
                code = subprocess.run(
                    cmd, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - t_spawn),
                ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        wall = time.monotonic() - t_spawn
        path = out / "result.json"
        if code != 0 or not path.is_file():
            sys.stderr.write(log.read_text()[-4000:])
            return {"error": f"worker exited with {code}", "wall": wall}
        res = json.loads(path.read_text())
        res["setup_s"] = res["ready"] - t_spawn
        res["wall"] = wall
        res["dir"] = str(out)
        return res


def _quantiles(values: list[float]) -> dict[int, float]:
    """Harrell-Davis estimates of the ``CELL_PCTS`` percentiles.

    Each is a Beta-weighted mean of all order statistics rather than one
    or two of them.  paper-io's cells fall in two clusters of 35 (fast
    WordPress, slow Cassandra) with the gap right at the median, where a
    plain median jumps with the two extreme cells either side of it.
    """
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = np.arange(n + 1) / n
    out = {}
    for p in CELL_PCTS:
        q = p / 100
        weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), edges))
        out[p] = float(weights @ x)
    return out


def check_runs(runs: list[dict], args) -> list[str]:
    """Failures across the campaign workers of one invocation."""
    failures: list[str] = []
    for i, r in enumerate(runs):
        tag = f"worker {i + 1}"
        if r.get("error"):
            failures.append(f"{tag}: {r['error'].strip().splitlines()[-1]}")
            continue
        if r["cells_done"] != r["cells_expected"]:
            failures.append(
                f"{tag}: {r['cells_done']} cells reported, "
                f"expected {r['cells_expected']}"
            )
        failures += [f"{tag}: {m}" for m in r["check_failures"]]
    good = [r for r in runs if not r.get("error")]
    for key in ("outputs", "counters"):
        if any(r[key] != good[0][key] for r in good[1:]):
            failures.append(f"{key} differ between runs of one seed")
    ref = _reference()
    if good and args.seed == ref["default_seed"]:
        want = ref["workloads"][args.workload]["tiny" if args.tiny else "default"]
        for key in ("outputs", "counters"):
            if good[0][key] != want[key]:
                failures.append(
                    f"{key} differ from reference.json: "
                    f"{good[0][key]} != {want[key]}"
                )
    return failures


def end_to_end(ok: list[dict], probes: list[dict]) -> tuple[dict, list[str]]:
    raw_cells = [c[0] for r in ok for c in r["cells"]]
    q = _quantiles([c[1] for r in ok for c in r["cells"]])
    q_raw = _quantiles(raw_cells)
    setup = [r["setup_s"] for r in ok + probes if "setup_s" in r]
    metrics = {
        "campaign_s": (statistics.median(r["campaign_s"] for r in ok), "s"),
        "cell_p50_s": (q[50], "s"),
        "cell_p80_s": (q[80], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }
    notes = [
        "campaign and cell times in drift-corrected seconds (see "
        "perfbench/speed.py), raw host seconds in brackets; set-up in raw "
        "host seconds",
        f"campaign_s over {len(ok)} campaign(s): "
        + ", ".join(f"{r['campaign_s']:.3f} [{r['campaign_raw_s']:.3f}]" for r in ok),
        f"cell times pooled over {len(raw_cells)} cells: "
        f"p50 {q[50]:.4f} [{q_raw[50]:.4f}], p80 {q[80]:.4f} [{q_raw[80]:.4f}]",
        f"setup_s over {len(setup)} interpreter(s): "
        + ", ".join(f"{x:.3f}" for x in setup),
        "host speed: reference kernel median "
        f"{statistics.median(x for r in ok for x in r['refs']) * 1e3:.3f} ms "
        f"(nominal {NOMINAL_S * 1e3:.3f} ms)",
    ]
    return metrics, notes


def per_layer(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    doc = json.loads((Path(traced["dir"]) / "spans.json").read_text())
    table = self_times(doc)
    probes = table.pop("bench.probe", {"calls": 0, "self_s": 0.0})
    scale = NOMINAL_S / statistics.median(traced["refs"])
    c = traced["counters"]

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) * scale

    advance = self_s("engine.advance")
    metrics = {
        "setup.import_s": (traced["import_s"], "s"),
        "setup.init_s": (traced["init_s"], "s"),
        "workloads.build_s": (self_s("workloads.build"), "s"),
        "workloads.build_calls": (c["build_calls"], "count"),
        "workloads.build_distinct": (c["build_distinct"], "count"),
        "workloads.build_useful_ratio": (
            c["build_distinct"] / c["build_calls"], "ratio"),
        "workloads.threads": (c["threads"], "count"),
        "workloads.segments": (c["segments"], "count"),
        "sched.overhead_model_s": (self_s("sched.overhead_model"), "s"),
        "engine.compile_s": (self_s("engine.compile"), "s"),
        "engine.advance_s": (advance, "s"),
        "engine.host_ns_per_segment": (advance / c["segments"] * 1e9, "ns"),
        "engine.sim_seconds": (c["sim_seconds"], "sim_s"),
        "engine.sim_sched_events": (c["sim_sched_events"], "count"),
        "run.finish_s": (self_s("run.finish"), "s"),
        "run.runner_self_s": (self_s("run.runner"), "s"),
        "run.campaign_self_s": (self_s("run.campaign"), "s"),
        "analysis.report_s": (self_s("analysis.report"), "s"),
        "trace.unattributed_s": (self_s("campaign"), "s"),
        "trace.overhead_ratio": (
            traced["campaign_s"] / untraced["campaign_s"], "ratio"),
    }
    lines = [
        f"self time per layer (drift-corrected x{scale:.3f}, see "
        f"perfbench/speed.py); traced campaign_s = {traced['campaign_s']:.3f} s, "
        f"untraced {untraced['campaign_s']:.3f} s; {probes['calls']} speed "
        f"probes ({probes['self_s']:.3f} s raw) excluded",
        f"  {'layer':<22} {'calls':>7} {'self_s':>9} {'share':>7}  entry point",
    ]
    total = sum(row["self_s"] for row in table.values())
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        label = "(unattributed)" if name == "campaign" else name
        legend = LAYERS.get(name) or LAYERS["run.<exp>"]
        lines.append(
            f"  {label:<22} {row['calls']:>7} {row['self_s'] * scale:>9.4f} "
            f"{row['self_s'] / total:>7.2%}  {legend}"
        )
    exps = sorted(n for n in table if n.startswith("run.fig") or n == "run.loadcurve")
    lines.append(
        "  experiments (inclusive): "
        + ", ".join(f"{n}_s={table[n]['incl_s'] * scale:.4f}" for n in exps)
    )
    lines.append(
        "  layers some workloads bypass (0 there): "
        + ", ".join(
            f"{n}_s={self_s(n):.4f}"
            for n in ("workloads.arrivals", "obs.sketch",
                      "analysis.chr", "analysis.loadcurve")
        )
    )
    return metrics, lines


def run(args) -> tuple[dict, int, int, list[str]]:
    """Measure one workload; returns metrics, attempted, failed, notes."""
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args, work)
    try:
        runs: list[dict] = []
        notes: list[str] = []
        if args.trace:
            runs.append(runner.worker())
            runs.append(runner.worker("--trace"))
        else:
            probes = [runner.worker("--setup-only") for _ in range(SETUP_PROBES)]
            start = time.monotonic()
            while True:
                runs.append(runner.worker())
                elapsed = time.monotonic() - start
                if elapsed + runs[-1]["wall"] > args.seconds:
                    break
        failures = check_runs(runs, args)
        attempted = EXPECTED_CELLS[args.workload] * len(runs)
        failed = sum(
            EXPECTED_CELLS[args.workload] for r in runs if r.get("error")
        )
        if failures:
            failed = attempted
            notes += ["CHECK FAILED: " + f for f in failures]
        ok = [r for r in runs if not r.get("error")]
        if args.trace and len(ok) == 2:
            metrics, lines = per_layer(runs[1], runs[0])
        elif ok and not args.trace:
            metrics, lines = end_to_end(ok, probes)
        else:
            return {}, attempted, failed, notes
        notes += lines
        notes.append(
            "exact counters (identical on every run of this seed): "
            + ", ".join(f"{k}={v}" for k, v in ok[0]["counters"].items())
        )
        notes.append(
            f"failed_ratio = {failed}/{attempted} = {failed / attempted:g}"
        )
        return metrics, attempted, failed, notes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one repetition per cell (self-test size)")
    args = ap.parse_args(argv)
    try:
        spec = _spec()
        build()
        metrics, attempted, failed, notes = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in names:
        if m["name"] in metrics:
            value, unit = metrics[m["name"]]
            out[m["name"]] = {"value": value, "unit": unit}
            print(f"{args.workload} {m['name']} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
