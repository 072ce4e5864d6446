"""One fresh benchmark process: set up, run the timed work, report.

``run.py`` starts it as ``python3 perfbench/child.py CONFIG_JSON`` and reads
the JSON object on the last line of its standard output.  CONFIG_JSON
names the mode:

* ``prime`` imports every module a workload uses, so bytecode is compiled
  before any set-up is timed, and exits;
* ``setup`` measures set-up only;
* ``sweep`` and ``fleet`` measure set-up, then run and time the work once.

Set-up runs from the parent's clock reading taken just before it started
this process (``spawned``) until the engine is ready; the clock is
system-wide, so the two readings compare.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _usage():
    """CPU seconds and peak RSS (MB) of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    return cpu, max(own.ru_maxrss, workers.ru_maxrss) / 1024.0


def _prime() -> None:
    """Import (and so compile) every module a benchmark process loads."""
    import repro.analysis.audit.closure  # noqa: F401  (digest code, loaded lazily)
    import repro.ensemble.shard  # noqa: F401
    import repro.experiments.engine.sweep  # noqa: F401
    import perfbench.reference  # noqa: F401
    import perfbench.tracing  # noqa: F401


def _setup_sweep(config: dict):
    from repro.experiments.engine.cache import ResultCache
    from repro.experiments.engine.scheduler import ExperimentEngine
    from repro.experiments.engine.spec import behavior_digest
    from repro.experiments.engine.sweep import regenerate_all

    imported = time.perf_counter()
    behavior_digest()
    digested = time.perf_counter()

    engine = ExperimentEngine(
        jobs=config["jobs"], cache=ResultCache(root=Path(config["cache_dir"]))
    )
    ready = time.perf_counter()

    def work(tracer):
        return regenerate_all(
            iteration_scale=config["scale"],
            seed=config["seed"],
            engine=engine,
            results_dir=Path(config["cache_dir"]) / "results",
        )

    return (imported, digested, ready), engine, work


def _setup_fleet(config: dict):
    from repro.ensemble.shard import run_sharded_ensemble_job
    from repro.experiments.engine.scheduler import ExperimentEngine
    from repro.experiments.engine.spec import EnsembleJobSpec, workload_job

    imported = time.perf_counter()

    engine = ExperimentEngine(jobs=config["jobs"])
    ready = time.perf_counter()

    def work(tracer):
        reports = {}
        for app in config["apps"]:
            for policy in config["policies"]:
                spec = EnsembleJobSpec(
                    members=tuple(
                        workload_job(
                            app,
                            policy=policy,
                            seed=config["seed"] + offset,
                            iteration_scale=config["scale"],
                        )
                        for offset in range(config["members"])
                    )
                )
                with tracer.span("shard.run") if tracer else nullcontext():
                    reports[f"{app}/{policy}"] = run_sharded_ensemble_job(
                        spec, engine, cache=None
                    )
        return reports

    return (imported, imported, ready), engine, work


def _sweep_outcome(report, engine) -> dict:
    from perfbench.reference import text_digest

    stats = engine.stats.as_dict()
    lost = sum(len(failures) for failures in report.failed_artefacts.values())
    return {
        "outputs": {run.name: text_digest(run.text) for run in report.runs},
        "stats": stats,
        "submitted": stats["submitted"],
        "completed": stats["submitted"] - lost,
        "errors": [
            f"{name}: {failure.error_type}: {failure.message}"
            for name, failures in report.failed_artefacts.items()
            for failure in failures
        ],
    }


def _fleet_outcome(reports, engine) -> dict:
    from perfbench.reference import summaries_digest

    submitted = sum(len(report.summaries) for report in reports.values())
    completed = sum(
        summary is not None
        for report in reports.values()
        for summary in report.summaries
    )
    return {
        "outputs": {
            cell: summaries_digest(report.summaries)
            for cell, report in reports.items()
            if report.ok
        },
        "stats": dict(
            engine.stats.as_dict(),
            shards=sum(report.shards for report in reports.values()),
        ),
        "submitted": submitted,
        "completed": completed,
        "errors": [
            f"{failure.label}: {failure.error_type}: {failure.message}"
            for report in reports.values()
            for failure in report.failures
        ],
    }


def _trace_summary(tracer, jobs: int) -> dict:
    from perfbench import tracing

    records = tracing.collect(tracer)
    own = records[0]["spans"]
    counters: dict = {}
    for record in records:
        for name, amount in record["counters"].items():
            counters[name] = counters.get(name, 0) + amount
    jobs_spans = [
        span for record in records for span in record["spans"]
        if span["name"] == "scheduler.job"
    ]
    batches = [span for span in own if span["name"] == "scheduler.batch"]
    shard_jobs = [(span["start"], span["seconds"]) for span in jobs_spans if span["members"]]
    return {
        "layers": tracing.layer_seconds(records),
        "artefact_wall": {
            span["name"][len("artefact."):]: span["seconds"]
            for span in own
            if span["name"].startswith("artefact.")
            and span["name"] != "artefact.format_write"
        },
        "counters": counters,
        "attribution": tracing.attribution(own, "sweep"),
        "batch_wall_s": sum(span["seconds"] for span in batches),
        "worker_busy_s": sum(span["seconds"] for span in jobs_spans),
        "workers": jobs,
        "processes": len({record["pid"] for record in records}),
        "shard_imbalance": tracing.shard_imbalance(
            [(span["start"], span["end"]) for span in batches], shard_jobs
        ),
    }


def main(argv) -> int:
    config = json.loads(argv[1])
    # Replace this script's own directory with the checkout and its src/.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    if config["mode"] == "prime":
        _prime()
        print(json.dumps({}))
        return 0

    spawned = config["spawned"]
    setup_fn = _setup_fleet if config["kind"] == "fleet" else _setup_sweep
    (imported, digested, ready), engine, work = setup_fn(config)
    result = {
        "setup": {
            "total_s": ready - spawned,
            "import_s": imported - spawned,
            "digest_s": digested - imported,
            "construct_s": ready - digested,
        }
    }
    if config["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if config.get("trace"):
        from perfbench import tracing

        tracer = tracing.Tracer(Path(config["spool"]))
        tracing.install(tracer)
    cpu_before, _ = _usage()
    start = time.perf_counter()
    try:
        with tracer.span("sweep") if tracer else nullcontext():
            outcome = work(tracer)
        wall = time.perf_counter() - start
        cpu_after, peak_rss_mb = _usage()
    finally:
        if tracer is not None:
            tracing.uninstall()
    summarise = _fleet_outcome if config["kind"] == "fleet" else _sweep_outcome
    result.update(summarise(outcome, engine))
    result.update(wall_s=wall, cpu_s=cpu_after - cpu_before, peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, config["jobs"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
