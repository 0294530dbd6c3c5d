"""Self-test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. On the default seed at one repetition per cell, every workload, with
   tracing off and on, passes its checks (including the reference
   hashes and counters) and emits every metric ``BENCHMARK.json`` names,
   with its unit.
2. An output that no longer matches its reference trips the checks
   and drives ``failed`` to ``attempted`` (``failed_ratio`` = 1).  The
   test runs a copy of the benchmark and the program whose
   ``reference.json`` has one output hash changed.
3. On the held-out seed at full size every workload passes its checks.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark exits non-zero without printing a result.

Exits 0 when all hold; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout


def copy_bench(dest: Path, with_program: bool) -> None:
    """Copy ``BENCHMARK.json``, ``perfbench/`` and, optionally, ``src/``
    into ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads((HERE / "reference.json").read_text())
    seed, held_out = str(ref["default_seed"]), str(ref["held_out_seed"])
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, out = bench("--workload", workload, "--seed", seed,
                              "--trace", trace, "--tiny")
            res = last_json(out) or {}
            tag = f"{workload} tiny trace={trace}"
            expect(code == 0 and res.get("correct") is True
                   and res.get("failed") == 0, f"{tag}: correct, none failed")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in names}
            expect(got == want, f"{tag}: emits every metric with its unit")

    damaged = ROOT / ".perfbench" / "damaged"
    copy_bench(damaged, with_program=True)
    ref_path = damaged / "perfbench" / "reference.json"
    doc = json.loads(ref_path.read_text())
    hashes = doc["workloads"]["openloop-knee"]["tiny"]["outputs"]
    name = sorted(hashes)[0]
    hashes[name] = ("1" if hashes[name][0] == "0" else "0") + hashes[name][1:]
    ref_path.write_text(json.dumps(doc))
    code, out = bench("--workload", "openloop-knee", "--seed", seed,
                      "--trace", "0", "--tiny", cwd=damaged)
    shutil.rmtree(damaged, ignore_errors=True)
    res = last_json(out) or {}
    expect(res.get("correct") is False
           and res.get("failed") == res.get("attempted", -1) > 0,
           f"{name} unlike its reference: check trips, failed_ratio = 1")

    for workload in WORKLOADS:
        code, out = bench("--workload", workload, "--seed", held_out,
                          "--trace", "0")
        res = last_json(out) or {}
        expect(res.get("correct") is True and res.get("failed") == 0,
               f"{workload} held-out seed {held_out}: checks pass")

    bare = ROOT / ".perfbench" / "bare"
    copy_bench(bare, with_program=False)
    code, out = bench("--workload", "paper-io", "--seed", "1",
                      "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and last_json(out) is None,
           "without the program: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
