"""Fluid discrete-event simulation engine.

The engine advances a population of threads (built from
:class:`repro.workloads.base.ProcessSpec`) under processor sharing on the
instance's core capacity, charging overheads from an
:class:`repro.sched.accounting.OverheadModel`.  State changes only at
*events* — segment boundaries, IO wake-ups, arrivals, barrier releases —
so the event-driven advance is exact, and thread state lives in numpy
arrays so each step is vectorized.

* :mod:`repro.engine.events` -- event kinds and trace records;
* :mod:`repro.engine.simulator` -- the engine;
* :mod:`repro.engine.native` -- C port of the single-group loop, used
  when eligible and loadable (bit-identical to the Python loop);
* :mod:`repro.engine.compile` -- columnar program tables for the hot path;
* :mod:`repro.engine.calendar` -- wake-up heap and runnable-set index;
* :mod:`repro.engine.tracing` -- optional per-event trace sinks.
"""

from repro.engine.calendar import EventCalendar, RunnableIndex
from repro.engine.compile import CompiledPrograms, compile_programs
from repro.engine.events import EventKind, TraceEvent
from repro.engine.simulator import (
    EngineConfig,
    EngineResult,
    GroupResult,
    InstanceDeployment,
    Simulator,
)
from repro.engine.tracing import ListTraceSink, NullTraceSink, TraceSink

__all__ = [
    "EventKind",
    "TraceEvent",
    "CompiledPrograms",
    "compile_programs",
    "EventCalendar",
    "RunnableIndex",
    "Simulator",
    "EngineConfig",
    "EngineResult",
    "GroupResult",
    "InstanceDeployment",
    "TraceSink",
    "NullTraceSink",
    "ListTraceSink",
]
