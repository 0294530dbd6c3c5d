"""Record ``perfbench/reference.json`` from the current program.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

For every workload, at both sizes (default and ``tiny``) and on the
default seed, it writes the outputs twice -- once with the ``repro`` CLI
command the workload mirrors (``repro report --only ...`` /
``repro loadcurve ...``) and once with the benchmark worker -- requires
the two to be byte-identical, and records their sha256 and the worker's
exact work counters.  Re-record only on purpose, when the program's
output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from workloads import LEGS, WORKLOADS, sha256_file  # noqa: E402

#: The seed the checks run on besides the default seed; no tuning used it.
HELD_OUT_SEED = 20201017


def main() -> int:
    from repro.rng import DEFAULT_SEED

    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    doc = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for workload in WORKLOADS:
        for size, tiny in (("default", False), ("tiny", True)):
            cli_dir = work / workload / size / "cli"
            cli_dir.mkdir(parents=True)
            expected = {}
            for leg in LEGS[workload]:
                subprocess.run(
                    [sys.executable, "-m", "repro",
                     *leg.cli_args(DEFAULT_SEED, tiny, cli_dir)],
                    env=env, check=True, stdout=subprocess.DEVNULL,
                )
                for name in leg.filenames():
                    expected[name] = sha256_file(cli_dir / name)
            out = work / workload / size / "worker"
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
                 "--workload", workload, "--seed", str(DEFAULT_SEED),
                 "--out", str(out), *(["--tiny"] if tiny else [])],
                env=env, check=True,
            )
            res = json.loads((out / "result.json").read_text())
            if res["error"] or res["check_failures"]:
                raise SystemExit(f"{workload}/{size}: {res['error'] or res['check_failures']}")
            if res["outputs"] != expected:
                raise SystemExit(
                    f"{workload}/{size}: worker outputs {res['outputs']} "
                    f"differ from the CLI's {expected}"
                )
            doc["workloads"].setdefault(workload, {})[size] = {
                "outputs": expected,
                "counters": res["counters"],
            }
            print(f"{workload}/{size}: {expected}")
    (HERE / "reference.json").write_text(json.dumps(doc, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
