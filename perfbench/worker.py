"""One measured campaign of one workload, in a fresh interpreter.

Run by ``perfbench/run.py``; not meant to be called by hand::

    python perfbench/worker.py --src SRC --workload W --seed N --out DIR \
        [--tiny] [--trace] [--setup-only]

Writes ``DIR/result.json`` (timings, cell gaps, counters, output hashes,
check failures) and, with ``--trace``, ``DIR/spans.json``.  Timed
regions:

* ``import_s``: ``import repro`` (and the API names the benchmark uses);
* ``init_s``: ``Campaign`` / ``r830_host`` construction;
* ``ready``: ``time.monotonic()`` once set-up is done, just before the
  first ``run_campaign`` call, so the parent can measure set-up from the
  moment it spawned us;
* ``campaign_raw_s``: first ``run_campaign`` call until every output
  file is written, less the probes between cells; ``campaign_s`` is the
  same interval drift-corrected, lap by lap.  ``cells`` holds each
  cell's (raw, corrected) gap between progress callbacks.  Checks run
  after the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    from workloads import (
        EXPECTED_CELLS, LEGS, make_campaign, render_outputs, sha256_file,
    )

    t0 = time.perf_counter()
    import repro
    from repro import ParallelRunner, run_campaign

    import_s = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")

    t0 = time.perf_counter()
    legs = LEGS[args.workload]
    campaigns = [make_campaign(leg, args.seed, args.tiny) for leg in legs]
    init_s = time.perf_counter() - t0
    result = {"import_s": import_s, "init_s": init_s, "ready": time.monotonic()}
    if args.setup_only:
        (out / "result.json").write_text(json.dumps(result))
        return 0

    from instrument import Instruments
    from speed import DriftClock, probe

    inst = Instruments(trace=args.trace)
    inst.install()
    # host speed before the first cell (the first call warms the kernel)
    probe()
    clock = DriftClock(probe(3), inst.call)
    written: list[str] = []
    results = []

    def write(files: dict[str, str]) -> None:
        for name, text in files.items():
            (out / name).write_text(text)

    def measured() -> None:
        for leg, campaign in zip(legs, campaigns):
            runner = ParallelRunner(1, progress=lambda *_: clock.lap(cell=True))
            inst.wrap_runner(runner)
            res = inst.call("run.campaign", run_campaign, campaign, runner=runner)
            files = render_outputs(leg, res, inst.call)
            inst.call("outputs.write", write, files)
            clock.lap(cell=False)
            written.extend(files)
            results.append(res)

    error = None
    try:
        inst.call("campaign", measured)
    except Exception:
        error = traceback.format_exc()
    inst.uninstall()
    result.update(
        campaign_raw_s=clock.raw,
        campaign_s=clock.corrected,
        cells=clock.cells,
        refs=clock.refs,
        cells_expected=EXPECTED_CELLS[args.workload],
        cells_done=len(clock.cells),
        counters=inst.counts.to_dict(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        error=error,
    )
    if inst.spans is not None:
        (out / "spans.json").write_text(inst.spans.to_json())
    if error is None:
        from checks import check_outputs

        try:
            result["check_failures"] = check_outputs(
                args.workload, legs, results, out
            )
        except Exception:
            result["check_failures"] = [traceback.format_exc()]
        result["outputs"] = {name: sha256_file(out / name) for name in written}
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
