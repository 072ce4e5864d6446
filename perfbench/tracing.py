"""Spans around calls into the repro layers, recorded from outside ``src/``.

The benchmark does not edit the program to trace it.  :func:`install`
wraps the public functions and methods at each layer boundary so that
every call opens a span, and :func:`uninstall` puts the originals back.
The tick phases come from the program's own ``attach_timer`` hooks and a
:class:`~repro.perf.timer.SectionTimer`; they are recorded as children of
the simulation span with the durations the timer measured.

Engine workers are forked from the traced process and inherit the
wrappers.  After each job a worker appends its spans to
``<spool>/worker-<pid>.jsonl``; :func:`collect` reads them back when the
work is done.  The engine pickles the job callable by import path, which
is why the active tracer lives in a module variable that
:func:`traced_execute_job` reads.

A layer's *self time* is its span's duration minus the durations of its
direct children.  Spans of one process are strictly nested and children
of one span never overlap, so the self times of one process's spans add
back exactly to the duration of its root span.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One process's spans and counters, as :func:`collect` returns them.
Record = Dict[str, object]


class Tracer:
    """In-memory spans and counters of the traced process and its workers."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        #: The traced process; any other pid is a forked worker.
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._open: List[int] = []

    def _claim(self) -> None:
        """In a freshly forked worker, drop what the parent had recorded."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.counters = {}
            self._open = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Record one span around the body of the ``with`` block."""
        self._claim()
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["seconds"] = record["end"] - record["start"]
            self._open.pop()

    def timed(self, name: str, seconds: float) -> None:
        """A child of the open span whose duration was measured elsewhere."""
        self._claim()
        self.spans.append(
            {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "seconds": seconds,
            }
        )

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter."""
        self._claim()
        self.counters[name] = self.counters.get(name, 0) + amount

    def flush(self) -> None:
        """In a worker, append this process's spans to the spool and forget them."""
        if os.getpid() == self.owner or self._open:
            return
        line = json.dumps(
            {"pid": self.pid, "spans": self.spans, "counters": self.counters}
        )
        with open(self.spool / f"worker-{self.pid}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.counters = {}


# ---------------------------------------------------------------------------
# Self-time and attribution arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [float(span["seconds"]) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= float(span["seconds"])
    return own


def layer_seconds(records: Sequence[Record]) -> Dict[str, float]:
    """Self time per span name, summed over every record."""
    totals: Dict[str, float] = {}
    for record in records:
        spans = record["spans"]
        for span, own in zip(spans, self_times(spans)):
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def attribution(spans: Sequence[dict], root: str) -> Dict[str, object]:
    """Split the root span's duration over the layers below it.

    Returns the root's duration, each other layer's self time, and the
    root's own self time: the part of the timed work no layer span
    covers.
    """
    roots = [i for i, span in enumerate(spans) if span["name"] == root]
    if len(roots) != 1 or spans[roots[0]]["parent"] is not None:
        raise ValueError(f"expected exactly one top-level {root!r} span")
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if index != roots[0]:
            layers[span["name"]] = layers.get(span["name"], 0.0) + own[index]
    total = float(spans[roots[0]]["seconds"])
    unattributed = own[roots[0]]
    return {
        "total_s": total,
        "layers": dict(sorted(layers.items(), key=lambda item: -item[1])),
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / total if total > 0.0 else 0.0,
    }


def shard_imbalance(
    batches: Sequence[Tuple[float, float]], jobs: Sequence[Tuple[float, float]]
) -> float:
    """Mean over batches of (longest shard time / mean shard time).

    ``batches`` are ``(start, end)`` timestamps of the engine batches
    and ``jobs`` are ``(start, seconds)`` of the ensemble shard jobs; a
    job belongs to the batch whose interval holds its start (the clock
    is system-wide, so worker and parent timestamps compare).  Batches
    without shard jobs are skipped; 0.0 means there were none.
    """
    ratios = []
    for begin, end in batches:
        times = [seconds for start, seconds in jobs if begin <= start <= end]
        if times and sum(times) > 0.0:
            ratios.append(max(times) / (sum(times) / len(times)))
    return statistics.fmean(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# Wrappers at the layer boundaries
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None
_EXECUTE_JOB: Optional[Callable] = None
_UNDO: List[Tuple[object, str, object]] = []


def _replace(owner: object, name: str, value: object) -> None:
    """Set an attribute (or a dict item) and remember the old value."""
    if isinstance(owner, dict):
        _UNDO.append((owner, name, owner[name]))
        owner[name] = value
    else:
        _UNDO.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)


def _spanned(
    tracer: Tracer,
    name: str,
    fn: Callable,
    counter: Optional[str] = None,
    hit_counter: Optional[str] = None,
) -> Callable:
    """``fn`` wrapped in a span, optionally counting calls and non-None results."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(counter)
        if hit_counter is not None and result is not None:
            tracer.count(hit_counter)
        return result

    return wrapper


def _timed_run(tracer: Tracer, span: str, prefix: str, fn: Callable) -> Callable:
    """A ``run`` method that attaches a section timer for its duration."""
    from repro.perf.timer import SectionTimer

    @functools.wraps(fn)
    def run(sim, *args, **kwargs):
        timer = SectionTimer()
        sim.attach_timer(timer)
        with tracer.span(span):
            try:
                result = fn(sim, *args, **kwargs)
            finally:
                sim.attach_timer(None)
                for section, seconds in timer.totals().items():
                    tracer.timed(prefix + section, seconds)
        if prefix == "tick.":
            tracer.count("simulator.ticks", timer.ticks)
        elif result is not None:
            tracer.count("ensemble.members", len(result))
            tracer.count(
                "ensemble.traj_ticks",
                sum(round(r.total_time_s / sim.dt) for r in result),
            )
        return result

    return run


def _patch_ensemble(tracer: Tracer) -> None:
    """Wrap the ensemble runner and engine (imports them if needed)."""
    import repro.ensemble.runner as ensemble_runner
    from repro.ensemble.engine import EnsembleSimulation

    _replace(
        ensemble_runner,
        "run_ensemble_workloads",
        _spanned(tracer, "runner", ensemble_runner.run_ensemble_workloads),
    )
    _replace(
        EnsembleSimulation,
        "run",
        _timed_run(tracer, "ensemble.run", "ens.", EnsembleSimulation.run),
    )


def traced_execute_job(spec, *args, **kwargs):
    """The engine's job entry point, wrapped in a ``scheduler.job`` span.

    Module-level so the engine can pickle it by import path.  In a
    worker that was not forked from the traced process it just runs the
    job.  The ensemble modules are wrapped on the first ensemble job of
    a process, where ``execute_job`` would import them anyway.
    """
    from repro.experiments.engine.spec import EnsembleJobSpec

    tracer = _ACTIVE
    if tracer is None or _EXECUTE_JOB is None:
        from repro.experiments.engine.worker import execute_job

        return execute_job(spec, *args, **kwargs)
    members = len(spec.members) if isinstance(spec, EnsembleJobSpec) else 0
    try:
        with tracer.span("scheduler.job", members=members):
            if members and _ensemble_unpatched():
                _patch_ensemble(tracer)
            return _EXECUTE_JOB(spec, *args, **kwargs)
    finally:
        tracer.flush()


def _ensemble_unpatched() -> bool:
    import repro.ensemble.runner as ensemble_runner

    return not hasattr(ensemble_runner.run_ensemble_workloads, "__wrapped__")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported repro tree in spans."""
    global _ACTIVE, _EXECUTE_JOB
    import sys

    from repro.experiments.engine import cache, scheduler, spec, sweep, worker
    from repro.soc.simulator import Simulation
    from repro.thermal.profile import ThermalProfile

    if _ACTIVE is not None:
        raise RuntimeError("tracing is already installed")
    _ACTIVE = tracer
    _EXECUTE_JOB = scheduler.execute_job

    job_key = _spanned(tracer, "spec.job_key", spec.job_key, "spec.job_key_calls")
    for module in (spec, cache, scheduler, worker):
        _replace(module, "job_key", job_key)
    _replace(
        cache.ResultCache,
        "get",
        _spanned(
            tracer, "cache.get", cache.ResultCache.get, "cache.get_calls", "cache.hits"
        ),
    )
    _replace(
        cache.ResultCache,
        "put",
        _spanned(tracer, "cache.put", cache.ResultCache.put, "cache.put_calls"),
    )
    for method in ("run", "run_collect"):
        _replace(
            scheduler.ExperimentEngine,
            method,
            _spanned(
                tracer,
                "scheduler.batch",
                getattr(scheduler.ExperimentEngine, method),
                "scheduler.batches",
            ),
        )
    _replace(scheduler, "execute_job", traced_execute_job)
    for name in ("run_workload", "run_scenario"):
        _replace(worker, name, _spanned(tracer, "runner", getattr(worker, name)))
    _replace(
        Simulation, "run", _timed_run(tracer, "simulator.run", "tick.", Simulation.run)
    )
    _replace(
        ThermalProfile,
        "worst_case_report",
        _spanned(tracer, "reliability.summarise", ThermalProfile.worst_case_report),
    )
    if "repro.ensemble.runner" in sys.modules:
        _patch_ensemble(tracer)

    formatters: Dict[type, bool] = {}

    def artefact(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(f"artefact.{name}"):
                result = fn(*args, **kwargs)
            kind = type(result)
            if kind not in formatters:
                formatters[kind] = True
                _replace(
                    kind,
                    "format_table",
                    _spanned(tracer, "artefact.format_write", kind.format_table),
                )
            return result

        return wrapper

    for name, fn in list(sweep.ARTEFACTS.items()):
        _replace(sweep.ARTEFACTS, name, artefact(name, fn))
    _replace(
        sweep,
        "atomic_write_text",
        _spanned(tracer, "artefact.format_write", sweep.atomic_write_text),
    )


def uninstall() -> None:
    """Put back every original :func:`install` replaced."""
    global _ACTIVE, _EXECUTE_JOB
    while _UNDO:
        owner, name, value = _UNDO.pop()
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)
    _ACTIVE = None
    _EXECUTE_JOB = None


def collect(tracer: Tracer) -> List[Record]:
    """The traced process's record followed by every worker's records."""
    records: List[Record] = [
        {"pid": tracer.owner, "spans": tracer.spans, "counters": tracer.counters}
    ]
    for path in sorted(tracer.spool.glob("worker-*.jsonl")):
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records
