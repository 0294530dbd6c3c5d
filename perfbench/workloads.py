"""The benchmark's workloads: which campaigns each runs and what it writes.

A workload is one or more *legs*; a leg is one ``run_campaign`` call on
``Campaign(seed=...)`` with the default executor, followed by the
outputs the matching ``repro`` CLI command would write:

* ``paper-compute`` -- ``repro report --only fig3 fig4 fig7 fig8``
* ``paper-io`` -- ``repro report --only fig5 fig6``
* ``openloop-knee`` -- ``repro loadcurve --workload wordpress`` and
  ``repro loadcurve --workload cassandra --arrivals bursty``, each with
  ``--knee-out``.

``tiny`` runs every leg at one repetition per cell (the self-test size);
the cell grid is the same, so the cell counts do not change.

Nothing here imports :mod:`repro` at module level: the worker times that
import as part of set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

WORKLOADS: tuple[str, ...] = ("paper-compute", "paper-io", "openloop-knee")

LOADCURVE_TITLE = "Open-loop saturation sweep"


@dataclass(frozen=True)
class Leg:
    """One ``run_campaign`` call and the files it writes."""

    stem: str
    include: tuple[str, ...]
    lc_workload: str | None = None
    lc_arrivals: str | None = None

    @property
    def is_loadcurve(self) -> bool:
        return self.lc_workload is not None

    def filenames(self) -> list[str]:
        if self.is_loadcurve:
            return [f"{self.stem}-report.md", f"{self.stem}-knee.json"]
        return [f"{self.stem}-report.md"]

    def cli_args(self, seed: int, tiny: bool, out_dir: Path) -> list[str]:
        """The ``python -m repro`` arguments that write the same files."""
        if self.is_loadcurve:
            report, knee = (str(out_dir / f) for f in self.filenames())
            args = [
                "--seed", str(seed), "loadcurve",
                "--workload", self.lc_workload,
                "--arrivals", self.lc_arrivals,
                "--out", report, "--knee-out", knee,
            ]
            return args + (["--reps", "1"] if tiny else [])
        args = [
            "--seed", str(seed), "report", "--only", *self.include,
            "--out", str(out_dir / self.filenames()[0]),
        ]
        return args + (["--reps-fast", "1", "--reps-io", "1"] if tiny else [])


LEGS: dict[str, tuple[Leg, ...]] = {
    "paper-compute": (Leg("compute", ("fig3", "fig4", "fig7", "fig8")),),
    "paper-io": (Leg("io", ("fig5", "fig6")),),
    "openloop-knee": (
        Leg("wordpress", ("loadcurve",), "wordpress", "poisson"),
        Leg("cassandra", ("loadcurve",), "cassandra", "bursty"),
    ),
}

#: Cells each workload runs (the grid does not depend on seed or size).
EXPECTED_CELLS: dict[str, int] = {
    "paper-compute": 73,
    "paper-io": 70,
    "openloop-knee": 60,
}


def make_campaign(leg: Leg, seed: int, tiny: bool):
    """The :class:`repro.Campaign` of one leg (default fidelity unless
    ``tiny``)."""
    from repro import Campaign
    from repro.analysis.loadcurve import LoadCurveConfig

    if leg.is_loadcurve:
        config = LoadCurveConfig(
            workload=leg.lc_workload,
            arrivals=leg.lc_arrivals,
            **({"reps": 1} if tiny else {}),
        )
        return Campaign(seed=seed, include=leg.include, loadcurve=config)
    reps = {"reps_fast": 1, "reps_io": 1} if tiny else {}
    return Campaign(seed=seed, include=leg.include, **reps)


def render_outputs(leg: Leg, result, render) -> dict[str, str]:
    """The text of every file one leg writes, by file name.

    ``render(layer, fn, *args)`` calls ``fn(*args)``; the worker passes
    one that records a span around each call when tracing.
    """
    from repro.analysis.loadcurve import knee_json
    from repro.analysis.report import generate_report

    if leg.is_loadcurve:
        report, knee = leg.filenames()
        return {
            report: render(
                "analysis.report", generate_report, result, LOADCURVE_TITLE
            ),
            knee: render("analysis.loadcurve", knee_json, result.loadcurve),
        }
    return {
        leg.filenames()[0]: render("analysis.report", generate_report, result)
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
