"""Outside-in instrumentation of ``repro``: work counters and layer spans.

Everything here wraps public entry points of ``repro`` modules from the
benchmark's own files; no program file is touched.  Two modes:

* **counting** (every run): exact work counters at the workload-build,
  arrival, engine and sketch boundaries.  A handful of integer updates
  per call; the timed run pays for nothing else.
* **tracing** (``--trace 1``): the same counters plus one span per call
  at every layer boundary.  Spans live in memory as flat lists with
  parent links and are written once, when the run ends.

Layer names follow the ``repro`` module that owns the entry point; see
``LAYERS`` for the map.
"""

from __future__ import annotations

import functools
import json
import time


#: Span name -> (module, entry point) it wraps, for the table legend.
LAYERS: dict[str, str] = {
    "campaign": "benchmark: first run_campaign call .. outputs written",
    "run.campaign": "repro.run.campaign.run_campaign (own code)",
    "run.runner": "repro.run.parallel.ParallelRunner.run_tasks",
    "run.<exp>": "one experiment: run_platform_sweep, or run_tasks of Figs. 7-8/loadcurve",
    "run.finish": "repro.run.execution.finish_run",
    "run.tasks": "repro.run.campaign.fig7_tasks/fig8_tasks/loadcurve_tasks",
    "workloads.build": "repro.workloads.*.build",
    "workloads.arrivals": "repro.workloads.arrivals.ArrivalProcess.times",
    "sched.overhead_model": "repro.run.execution.assemble_overhead_model",
    "engine.compile": "repro.engine.simulator.Simulator.__init__",
    "engine.advance": "repro.engine.simulator.Simulator.run",
    "obs.sketch": "repro.obs.sketch.QuantileSketch.observe/observe_many/merge",
    "analysis.chr": "repro.analysis.chr.estimate_suitable_chr_range",
    "analysis.loadcurve": "repro.analysis.loadcurve.build_loadcurve, knee_json",
    "analysis.report": "repro.analysis.report.generate_report",
    "outputs.write": "benchmark: writing the output files",
}

#: Workload class -> the Figs. 3-6 sweep it is the subject of.
SWEEP_EXPERIMENT = {
    "FfmpegWorkload": "fig3",
    "MpiSearchWorkload": "fig4",
    "WordPressWorkload": "fig5",
    "CassandraWorkload": "fig6",
}


class Spans:
    """Spans kept in memory: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def to_json(self) -> str:
        return json.dumps(
            {
                "names": self.names,
                "parents": self.parents,
                "starts": self.starts,
                "ends": self.ends,
            },
            separators=(",", ":"),
        )


def self_times(doc: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost only) and self
    seconds (duration minus the children it covers)."""
    names, parents = doc["names"], doc["parents"]
    durations = [e - s for s, e in zip(doc["starts"], doc["ends"])]
    child_time = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += durations[i]
    table: dict[str, dict] = {}
    for i, name in enumerate(names):
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += durations[i] - child_time[i]
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            row["incl_s"] += durations[i]
    return table


class Counters:
    """Exact work counts; identical on every run of one seed and size."""

    FIELDS = (
        "build_calls", "build_distinct", "threads", "segments",
        "arrival_draws", "sketch_values",
        "sim_runs", "sim_seconds", "sim_sched_events", "sim_ops",
    )

    def __init__(self) -> None:
        self.build_calls = 0
        self.threads = 0
        self.segments = 0
        self.arrival_draws = 0
        self.sketch_values = 0
        self.sim_runs = 0
        self.sim_seconds = 0.0
        self.sim_sched_events = 0.0
        self.sim_ops = 0
        self.builds: set = set()

    @property
    def build_distinct(self) -> int:
        return len(self.builds)

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.FIELDS}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Instruments:
    """Installs the wrappers; :meth:`uninstall` puts the originals back."""

    def __init__(self, *, trace: bool) -> None:
        self.counts = Counters()
        self.spans = Spans() if trace else None
        self.experiment: str | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._depth = {"build": 0, "sketch": 0}

    def call(self, layer: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a ``layer`` span when tracing."""
        if self.spans is None:
            return fn(*args, **kwargs)
        return self.spans.span(layer, fn, *args, **kwargs)

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, after=None,
               depth: str | None = None) -> None:
        """Wrap ``owner.attr``: a ``layer`` span when tracing, and
        ``after(args, result)`` on calls not nested in another call of
        the same ``depth`` group.  Nothing to do means no wrapper."""
        spans = self.spans
        if spans is None and after is None:
            return
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        level = self._depth

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = True
            if depth is not None:
                outer = level[depth] == 0
                level[depth] += 1
            idx = spans.open(layer) if spans is not None else -1
            try:
                result = original(*args, **kwargs)
            finally:
                if spans is not None:
                    spans.close(idx)
                if depth is not None:
                    level[depth] -= 1
            if after is not None and outer:
                after(args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import numpy as np

        import repro.run.campaign as campaign_mod
        import repro.run.execution as execution
        from repro.engine.simulator import Simulator
        from repro.obs.sketch import QuantileSketch
        from repro.workloads.arrivals import ArrivalProcess
        from repro.workloads.base import Workload

        c = self.counts

        def on_build(args, processes):
            workload, n_cores, rng = args[:3]
            c.build_calls += 1
            # The stream's state after the build stands for the stream:
            # equal streams leave equal states, distinct ones never meet.
            state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
            c.builds.add((repr(workload), n_cores, state))
            for p in processes:
                c.threads += len(p.threads)
                for t in p.threads:
                    c.segments += len(t.program)

        for cls in set(_subclasses(Workload)):
            if "build" in cls.__dict__:
                self._patch(cls, "build", "workloads.build", on_build, "build")

        def on_times(args, result):
            c.arrival_draws += len(result)

        for cls in (ArrivalProcess, *_subclasses(ArrivalProcess)):
            for attr in ("times", "times_scalar"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, "workloads.arrivals", on_times)

        def on_run(args, result):
            c.sim_runs += 1
            c.sim_seconds += float(result.makespan)
            c.sim_sched_events += float(result.counters.sched_events)
            c.sim_ops += int(result.op_responses.size)

        self._patch(Simulator, "run", "engine.advance", on_run)

        def on_observe(args, result):
            c.sketch_values += 1

        def on_observe_many(args, result):
            c.sketch_values += int(np.asarray(args[1]).size)

        self._patch(QuantileSketch, "observe", "obs.sketch", on_observe, "sketch")
        self._patch(QuantileSketch, "observe_many", "obs.sketch",
                    on_observe_many, "sketch")
        if self.spans is None:
            return
        self._patch(QuantileSketch, "merge", "obs.sketch")
        self._patch(Simulator, "__init__", "engine.compile")
        self._patch(execution, "assemble_overhead_model", "sched.overhead_model")
        self._patch(execution, "finish_run", "run.finish")
        self._patch(campaign_mod, "estimate_suitable_chr_range", "analysis.chr")
        self._patch(campaign_mod, "build_loadcurve", "analysis.loadcurve")
        self._patch_experiments(campaign_mod)

    def _patch_experiments(self, campaign_mod) -> None:
        """Label runner calls with the experiment they serve: sweeps by
        their workload, Figs. 7-8 and the load sweep by the task builder
        called just before the runner."""
        instruments = self

        def labelled(name):
            def after(args, result):
                instruments.experiment = name
            return after

        for fn, exp in (
            ("fig7_tasks", "fig7"), ("fig8_tasks", "fig8"),
            ("loadcurve_tasks", "loadcurve"),
        ):
            self._patch(campaign_mod, fn, "run.tasks", labelled(exp))

        original = campaign_mod.run_platform_sweep
        spans = self.spans

        @functools.wraps(original)
        def sweep(workload, *args, **kwargs):
            exp = SWEEP_EXPERIMENT.get(type(workload).__name__, "sweep")
            idx = spans.open(f"run.{exp}")
            try:
                return original(workload, *args, **kwargs)
            finally:
                spans.close(idx)

        self._saved.append((campaign_mod, "run_platform_sweep", original))
        campaign_mod.run_platform_sweep = sweep

    def wrap_runner(self, runner) -> None:
        """Span the runner's ``run_tasks`` (the ``run.runner`` layer),
        inside a ``run.<experiment>`` span for Figs. 7-8 and the load
        sweep."""
        spans = self.spans
        if spans is None:
            return
        original = runner.run_tasks
        instruments = self

        def run_tasks(worker, payloads):
            exp, instruments.experiment = instruments.experiment, None
            outer = spans.open(f"run.{exp}") if exp else -1
            try:
                return spans.span("run.runner", original, worker, payloads)
            finally:
                if exp:
                    spans.close(outer)

        runner.run_tasks = run_tasks

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
