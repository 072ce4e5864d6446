"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro all               # every artefact, serial
    python -m repro all --jobs 8      # every artefact, 8 worker processes
    python -m repro table2            # Table 2
    python -m repro fig3 --scale 0.5  # Figure 3 at half length
    python -m repro run tachyon --dataset "set 1" --policy proposed
    python -m repro run tachyon --profile   # + cProfile hot-spot dump
    python -m repro bench             # tick-loop benchmark -> BENCH_PR3.json
    python -m repro ensemble run tachyon --members 64   # vectorized seed grid
    python -m repro ensemble bench    # trajectories/sec -> BENCH_PR7.json
    python -m repro list              # available artefacts & policies
    python -m repro run tachyon --checkpoint-every 500 --checkpoint-dir ckpts
    python -m repro run tachyon --checkpoint-dir ckpts --resume
    python -m repro ckpt verify ckpts # audit a checkpoint chain

Every artefact command prints the same console table its benchmark
prints.  Artefact commands run through the experiment engine
(:mod:`repro.experiments.engine`): ``--jobs N`` fans the grid out over
``N`` worker processes and completed runs are memoised in a
content-addressed cache under ``.repro-cache/`` (``--no-cache``
disables it; ``--jobs 1 --no-cache`` is the original serial code
path).  ``all`` additionally writes each table to ``results/<name>.txt``
— or, at reduced ``--scale``, into the cache tree so scaled output
never clobbers the committed full-scale artefacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.config import EngineConfig
from repro.experiments.engine import ExperimentEngine
from repro.experiments.engine.sweep import ARTEFACTS, regenerate_all
from repro.experiments.runner import POLICIES, run_workload
from repro.faults.presets import FAULT_MODES, default_supervisor_config, fault_config_for
from repro.workloads.alpbench import APP_NAMES


def _add_job_flags(parser: argparse.ArgumentParser) -> None:
    """Worker, cache and retry flags shared by every engine-backed command."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1: serial); an ensemble's members "
        "are split into this many deterministic shards",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed result cache under .repro-cache/",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any single job or shard attempt running longer "
        "than this (parallel mode only; default: no timeout)",
    )
    parser.add_argument(
        "--max-job-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per job before it is recorded as failed (default 3)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the deterministic retry backoff accounting "
        "(default 0.5)",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine flags shared by every artefact command and ``all``."""
    _add_job_flags(parser)
    parser.add_argument(
        "--ensemble",
        action="store_true",
        help="batch grid cells sharing a platform closure through the "
        "vectorized ensemble engine (bit-identical results, sharded "
        "across --jobs worker processes)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="TICKS",
        help="snapshot each job's full simulation state every TICKS ticks",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="root directory for per-job checkpoint stores",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume interrupted jobs from their newest valid checkpoint "
        "under --checkpoint-dir",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DAC'14 RL thermal-management paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ARTEFACTS:
        artefact = sub.add_parser(name, help=f"regenerate {name}")
        artefact.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="application-length scale (default 1.0)",
        )
        artefact.add_argument("--seed", type=int, default=1)
        _add_engine_flags(artefact)

    everything = sub.add_parser(
        "all", help="regenerate every results/*.txt artefact in one sweep"
    )
    everything.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="application-length scale (non-1.0 output goes to the cache tree)",
    )
    everything.add_argument("--seed", type=int, default=1)
    everything.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of artefacts (default: all of them)",
    )
    everything.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-artefact tables (summary only)",
    )
    everything.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write sweep metrics to PATH (Prometheus text for .prom, "
        "JSON otherwise)",
    )
    _add_engine_flags(everything)

    run = sub.add_parser("run", help="run one workload under one policy")
    run.add_argument("app", choices=APP_NAMES)
    run.add_argument("--dataset", default=None)
    run.add_argument("--policy", default="proposed", choices=POLICIES)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--faults",
        default="none",
        choices=FAULT_MODES,
        help="inject faults into the sensor/actuation paths",
    )
    run.add_argument(
        "--supervised",
        action="store_true",
        help="enable the sensor/actuation supervision layer",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="record a schema-versioned JSONL event trace of the run",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect metrics and export them as JSON + Prometheus text",
    )
    run.add_argument(
        "--obs-dir",
        default="obs",
        help="directory for trace/metrics/result/manifest artefacts "
        "(default ./obs)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="TICKS",
        help="snapshot the full simulation state every TICKS ticks",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint store directory (required for --checkpoint-every)",
    )
    run.add_argument(
        "--resume",
        nargs="?",
        const=True,
        default=False,
        metavar="CKPT",
        help="resume from the newest valid checkpoint in --checkpoint-dir, "
        "or from an explicit checkpoint file",
    )

    ckpt = sub.add_parser(
        "ckpt", help="inspect and maintain a checkpoint directory"
    )
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    ckpt_list = ckpt_sub.add_parser(
        "list", help="list the manifest chain of a checkpoint directory"
    )
    ckpt_list.add_argument("dir", help="checkpoint directory")
    ckpt_verify = ckpt_sub.add_parser(
        "verify",
        help="re-hash every checkpoint and audit the manifest chain",
    )
    ckpt_verify.add_argument("dir", help="checkpoint directory")
    ckpt_prune = ckpt_sub.add_parser(
        "prune", help="drop all but the newest N valid checkpoints"
    )
    ckpt_prune.add_argument("dir", help="checkpoint directory")
    ckpt_prune.add_argument(
        "--keep",
        type=int,
        default=3,
        metavar="N",
        help="valid checkpoints to retain (default 3)",
    )

    trace = sub.add_parser("trace", help="inspect JSONL run traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="validate a trace and recompute its headline statistics",
    )
    summarize.add_argument("path", help="trace.jsonl file to summarise")
    summarize.add_argument(
        "--check-result",
        default=None,
        metavar="RESULT_JSON",
        help="fail (exit 1) unless the recomputed headline matches this "
        "result.json's embedded trace summary",
    )

    bench = sub.add_parser(
        "bench", help="benchmark the tick loop and write BENCH_PR3.json"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer ticks and repeats",
    )
    bench.add_argument(
        "--ticks", type=int, default=None, help="measured ticks per run"
    )
    bench.add_argument(
        "--repeats", type=int, default=None, help="timed runs per workload"
    )
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument(
        "--output",
        default="BENCH_PR3.json",
        help="where to write the JSON report (default BENCH_PR3.json)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="print per-workload speedup deltas vs this committed "
        "baseline and fail (exit 1) past --max-regression",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional slowdown vs the baseline (default 0.30)",
    )

    ensemble = sub.add_parser(
        "ensemble",
        help="vectorized many-member execution (ensemble run / bench)",
    )
    ensemble_sub = ensemble.add_subparsers(dest="ensemble_command", required=True)
    ens_run = ensemble_sub.add_parser(
        "run",
        help="run one workload across a seed grid as one vectorized job",
    )
    ens_run.add_argument("app", choices=APP_NAMES)
    ens_run.add_argument("--dataset", default=None)
    ens_run.add_argument("--policy", default="proposed", choices=POLICIES)
    ens_run.add_argument(
        "--members",
        type=int,
        default=8,
        help="ensemble size; members get seeds seed..seed+members-1 "
        "(default 8)",
    )
    ens_run.add_argument("--seed", type=int, default=1)
    ens_run.add_argument("--scale", type=float, default=1.0)
    ens_run.add_argument(
        "--max-time",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-member wall-clock cap in simulated seconds",
    )
    ens_run.add_argument(
        "--faults",
        default="none",
        choices=FAULT_MODES,
        help="inject faults into every member's sensor/actuation paths",
    )
    _add_job_flags(ens_run)
    ens_bench = ensemble_sub.add_parser(
        "bench",
        help="trajectories/sec benchmark and write BENCH_PR8.json",
    )
    ens_bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer ticks and repeats (same member count)",
    )
    ens_bench.add_argument(
        "--members",
        type=int,
        default=None,
        help="ensemble width (default 256)",
    )
    ens_bench.add_argument(
        "--ticks", type=int, default=None, help="measured ensemble ticks per run"
    )
    ens_bench.add_argument(
        "--repeats", type=int, default=None, help="timed runs per workload"
    )
    ens_bench.add_argument(
        "--scalar-ticks",
        type=int,
        default=None,
        help="measured ticks for the serial scalar baseline",
    )
    ens_bench.add_argument("--seed", type=int, default=1)
    ens_bench.add_argument(
        "--grids",
        action="store_true",
        help="also measure the grid planner (scalar serial vs "
        "--ensemble engine on a seed-replicated grid) and label the "
        "report BENCH_PR9",
    )
    ens_bench.add_argument(
        "--min-grid-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="with --grids: fail (exit 1) when the jobs=1 ensemble grid "
        "run is not at least FACTOR x faster than the scalar serial grid",
    )
    ens_bench.add_argument(
        "--output",
        default="BENCH_PR8.json",
        help="where to write the JSON report (default BENCH_PR8.json)",
    )
    ens_bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="print per-workload speedup deltas vs this committed "
        "baseline and fail (exit 1) past --max-regression",
    )
    ens_bench.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional slowdown vs the baseline (default 0.30)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the determinism-aware static analysis over the package",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-versioned JSON report instead of text",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="CODE",
        default=None,
        help="run only this rule (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: ./.repro-lint-baseline.json if present)",
    )
    lint.add_argument(
        "--fix-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings",
    )

    audit = sub.add_parser(
        "audit",
        help="run the project-level repro audit (call graph, closure digest)",
    )
    audit.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="package tree to audit (default: the installed repro package)",
    )
    audit.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-versioned JSON report instead of text",
    )
    audit.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="CODE",
        default=None,
        help="run only this audit rule (repeatable; default: all rules)",
    )
    audit.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: ./.repro-audit-baseline.json if present)",
    )
    audit.add_argument(
        "--fix-baseline",
        action="store_true",
        help="rewrite the baseline (closure digest, pairs, findings) and exit 0",
    )
    audit.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered audit rule and exit",
    )
    audit.add_argument(
        "--check-drift",
        action="store_true",
        help="also fail when the closure digest drifted from the baseline",
    )
    audit.add_argument(
        "--show-closure",
        action="store_true",
        help="print the per-module fingerprint table behind the digest",
    )
    audit.add_argument(
        "--explain",
        default=None,
        metavar="JOB_KEY",
        help="explain whether a cached entry (key or >=8-char prefix) is stale",
    )
    audit.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings",
    )

    sub.add_parser("list", help="list artefacts, applications and policies")
    return parser


def _engine_from(args: argparse.Namespace) -> ExperimentEngine:
    """Build the engine an artefact command asked for."""
    return ExperimentEngine.from_config(
        EngineConfig(
            jobs=args.jobs,
            use_cache=not args.no_cache,
            job_timeout_s=args.job_timeout,
            max_job_attempts=args.max_job_attempts,
            retry_backoff_s=args.retry_backoff,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume=bool(args.resume),
            ensemble=bool(getattr(args, "ensemble", False)),
        )
    )


def _write_metrics(registry, path: Path) -> None:
    """Export a registry: Prometheus text for ``.prom``, JSON otherwise."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".prom":
        path.write_text(registry.render_prometheus())
    else:
        path.write_text(registry.to_json() + "\n")


def _command_all(args: argparse.Namespace) -> int:
    engine = _engine_from(args)
    if args.metrics is not None:
        from repro.obs import MetricsRegistry

        engine.metrics = MetricsRegistry()
    artefacts = args.only.split(",") if args.only else None
    report = regenerate_all(
        iteration_scale=args.scale,
        seed=args.seed,
        engine=engine,
        artefacts=artefacts,
        progress=print,
    )
    if not args.quiet:
        for run in report.runs:
            print(run.text)
            print()
    for line in report.summary_lines():
        print(line)
    if args.metrics is not None:
        path = Path(args.metrics)
        _write_metrics(engine.metrics, path)
        print(f"metrics written to {path}")
    manifest_path = _write_sweep_manifest(args, report)
    print(f"manifest written to {manifest_path}")
    return 0 if report.ok else 1


def _write_sweep_manifest(args: argparse.Namespace, report) -> Path:
    """Bind the sweep's outputs — and its structured job failures — to
    the configuration that produced them."""
    from repro.obs import build_manifest

    sweep_config = {
        "command": "all",
        "scale": args.scale,
        "seed": args.seed,
        "only": args.only,
        "jobs": args.jobs,
        "ensemble": bool(getattr(args, "ensemble", False)),
    }
    run_record = dict(sweep_config)
    run_record["failures"] = {
        name: [failure.as_dict() for failure in job_failures]
        for name, job_failures in report.failed_artefacts.items()
    }
    if report.stats is not None:
        run_record["engine_stats"] = report.stats.as_dict()
    manifest = build_manifest(
        sweep_config, run=run_record, repo_dir=report.output_dir
    )
    for run in report.runs:
        manifest.add_artefact(run.path, report.output_dir)
    return manifest.write(report.output_dir)


def _command_run(args: argparse.Namespace) -> int:
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    instrumentation = None
    registry = None
    tracer = None
    if args.trace or args.metrics:
        from repro.obs import Instrumentation, MetricsRegistry, TraceEmitter

        registry = MetricsRegistry() if args.metrics else None
        tracer = TraceEmitter() if args.trace else None
        instrumentation = Instrumentation(registry=registry, tracer=tracer)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and isinstance(args.resume, str):
        # An explicit checkpoint file implies its directory's store.
        checkpoint_dir = str(Path(args.resume).parent)
    summary = run_workload(
        args.app,
        args.dataset,
        args.policy,
        seed=args.seed,
        iteration_scale=args.scale,
        faults=fault_config_for(args.faults),
        supervisor=default_supervisor_config() if args.supervised else None,
        instrumentation=instrumentation,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        print(f"profile of `repro run {args.app} --policy {args.policy}`:")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
        stats.sort_stats("tottime").print_stats(15)
    print(f"{summary.app} ({summary.dataset}) under {summary.policy}:")
    print(f"  average temperature : {summary.average_temp_c:8.1f} C")
    print(f"  peak temperature    : {summary.peak_temp_c:8.1f} C")
    print(f"  cycling MTTF        : {summary.cycling_mttf_years:8.2f} years")
    print(f"  aging MTTF          : {summary.aging_mttf_years:8.2f} years")
    print(f"  execution time      : {summary.execution_time_s:8.1f} s")
    print(f"  avg dynamic power   : {summary.average_dynamic_power_w:8.1f} W")
    print(f"  dynamic energy      : {summary.dynamic_energy_j / 1e3:8.1f} kJ")
    if args.faults != "none":
        injected = sum(
            summary.fault_stats.get(key, 0.0)
            for key in ("dropouts", "spikes", "stuck_reads",
                        "governor_failures", "governor_noops",
                        "mapping_failures", "mapping_noops")
        )
        print(f"  injected faults     : {injected:8.0f}")
    if args.supervised:
        stats = summary.supervisor_stats
        fixups = (
            stats.get("sensor_median_fallbacks", 0.0)
            + stats.get("sensor_hold_fallbacks", 0.0)
            + stats.get("sensor_failsafe_fallbacks", 0.0)
        )
        print(f"  supervisor fixups   : {fixups:8.0f}")
        print(f"  emergencies         : {stats.get('emergencies', 0.0):8.0f}")
    if instrumentation is not None:
        _write_run_observability(args, summary, registry, tracer)
    return 0


def _write_run_observability(
    args: argparse.Namespace, summary, registry, tracer
) -> None:
    """Write the trace/metrics/result/manifest artefacts of one run."""
    from repro.obs import build_manifest, summarize_events, write_events

    obs_dir = Path(args.obs_dir)
    obs_dir.mkdir(parents=True, exist_ok=True)
    run_config = {
        "app": args.app,
        "dataset": args.dataset,
        "policy": args.policy,
        "seed": args.seed,
        "scale": args.scale,
        "faults": args.faults,
        "supervised": bool(args.supervised),
    }
    result_doc = {
        "run": run_config,
        "summary": {
            "average_temp_c": summary.average_temp_c,
            "peak_temp_c": summary.peak_temp_c,
            "aging_mttf_years": summary.aging_mttf_years,
            "cycling_mttf_years": summary.cycling_mttf_years,
            "num_cycles": summary.num_cycles,
            "execution_time_s": summary.execution_time_s,
            "throughput": summary.throughput,
            "completed": summary.completed,
        },
    }
    paths = []
    if tracer is not None:
        paths.append(write_events(tracer.events, obs_dir / "trace.jsonl"))
        # The headline the trace alone must reproduce (checked by
        # `repro trace summarize --check-result`).
        result_doc["trace"] = summarize_events(
            tracer.events, validate=False
        ).as_dict()
    if registry is not None:
        metrics_json = obs_dir / "metrics.json"
        metrics_json.write_text(registry.to_json() + "\n")
        metrics_prom = obs_dir / "metrics.prom"
        metrics_prom.write_text(registry.render_prometheus())
        paths.extend([metrics_json, metrics_prom])
    result_path = obs_dir / "result.json"
    result_path.write_text(
        json.dumps(result_doc, indent=2, sort_keys=True) + "\n"
    )
    paths.append(result_path)
    manifest = build_manifest(run_config, run=run_config, repo_dir=obs_dir)
    for path in paths:
        manifest.add_artefact(path, obs_dir)
    manifest_path = manifest.write(obs_dir)
    for path in paths + [manifest_path]:
        print(f"wrote {path}")


def _command_ckpt(args: argparse.Namespace) -> int:
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(args.dir)
    if args.ckpt_command == "list":
        entries = store.entries()
        if not entries:
            print(f"no checkpoint chain under {args.dir}")
            return 0
        print(f"{'tick':>10} {'digest':<12} {'bytes':>9}  file")
        for entry in entries:
            print(
                f"{entry.tick:>10} {entry.digest[:12]:<12} "
                f"{entry.bytes:>9}  {entry.file}"
            )
        return 0
    if args.ckpt_command == "verify":
        reports = store.verify()
        if not reports:
            print(f"nothing to verify under {args.dir}")
            return 0
        bad = 0
        print(f"{'tick':>10} {'digest':<12} {'status':<8} {'chain':<6} file")
        for report in reports:
            healthy = report["status"] == "ok" and report["chain_ok"]
            bad += 0 if healthy else 1
            tick = "?" if report["tick"] is None else report["tick"]
            print(
                f"{tick:>10} {report['digest'][:12]:<12} "
                f"{report['status']:<8} "
                f"{'ok' if report['chain_ok'] else 'BROKEN':<6} "
                f"{report['file']}"
            )
        print(
            f"{len(reports)} checkpoint(s), "
            f"{len(reports) - bad} healthy, {bad} problem(s)"
        )
        return 0 if bad == 0 else 1
    if args.ckpt_command == "prune":
        if args.keep < 1:
            print("--keep must be >= 1")
            return 2
        removed = store.prune(args.keep)
        for record in removed:
            print(f"removed {record.file} (tick {record.tick})")
        print(
            f"pruned {len(removed)} checkpoint(s), "
            f"kept {len(store.entries())}"
        )
        return 0
    raise AssertionError(f"unhandled ckpt command {args.ckpt_command!r}")


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceValidationError,
        format_summary,
        read_events,
        summarize_events,
    )

    try:
        summary = summarize_events(read_events(args.path), validate=True)
    except TraceValidationError as exc:
        print(f"invalid trace: {exc}")
        return 1
    print(format_summary(summary))
    if args.check_result is not None:
        document = json.loads(Path(args.check_result).read_text())
        recorded = document.get("trace")
        if recorded is None:
            print(f"{args.check_result} embeds no trace summary")
            return 1
        recomputed = summary.as_dict()
        mismatches = [
            key
            for key in recorded
            if recorded[key] != recomputed.get(key)
        ]
        if mismatches:
            for key in mismatches:
                print(
                    f"MISMATCH {key}: result.json has {recorded[key]!r}, "
                    f"trace gives {recomputed.get(key)!r}"
                )
            return 1
        print(f"trace matches {args.check_result}")
    return 0


def _gate_bench_report(args: argparse.Namespace, report, baseline) -> int:
    """Shared ``--compare`` epilogue of both benches.

    Prints the per-workload speedup deltas, then fails (exit 1) on a
    regression past ``--max-regression``.
    """
    from repro.perf import bench

    print(f"comparison vs {args.compare}:")
    for line in bench.compare_reports(report, baseline):
        print(f"  {line}")
    failures = bench.check_regression(
        report, baseline, max_regression=args.max_regression
    )
    if failures:
        print(f"REGRESSION vs {args.compare}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"no regression vs {args.compare} "
        f"(tolerance {args.max_regression:.0%})"
    )
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench

    baseline = (
        bench.load_report(args.compare) if args.compare is not None else None
    )
    report = bench.run_bench(
        quick=args.quick,
        ticks=args.ticks,
        repeats=args.repeats,
        seed=args.seed,
        progress=print,
    )
    bench.write_report(report, args.output)
    print()
    print(bench.format_report(report))
    print(f"report written to {args.output}")
    if baseline is not None:
        return _gate_bench_report(args, report, baseline)
    return 0


def _command_ensemble_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench

    baseline = (
        bench.load_report(args.compare) if args.compare is not None else None
    )
    report = bench.run_ensemble_bench(
        quick=args.quick,
        members=args.members,
        ticks=args.ticks,
        repeats=args.repeats,
        scalar_ticks=args.scalar_ticks,
        seed=args.seed,
        grids=args.grids,
        progress=print,
    )
    bench.write_report(report, args.output)
    print()
    print(bench.format_ensemble_report(report))
    print(f"report written to {args.output}")
    if args.min_grid_speedup is not None:
        failures = bench.check_grid_speedup(report, args.min_grid_speedup)
        for line in failures:
            print(f"GRID SPEEDUP FAILURE: {line}")
        if failures:
            return 1
    if baseline is not None:
        return _gate_bench_report(args, report, baseline)
    return 0


def _command_ensemble_run(args: argparse.Namespace) -> int:
    from repro.ensemble.shard import run_sharded_ensemble_job
    from repro.experiments.engine.cache import ResultCache, default_cache_root
    from repro.experiments.engine.scheduler import ExperimentEngine
    from repro.experiments.engine.spec import EnsembleJobSpec, workload_job

    if args.members < 1:
        print("--members must be at least 1")
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1")
        return 2
    faults = fault_config_for(args.faults)
    spec = EnsembleJobSpec(
        members=tuple(
            workload_job(
                args.app,
                dataset=args.dataset,
                policy=args.policy,
                seed=args.seed + offset,
                iteration_scale=args.scale,
                max_time_s=args.max_time,
                faults=faults,
            )
            for offset in range(args.members)
        )
    )
    cache = None if args.no_cache else ResultCache(default_cache_root())
    # Member-level caching happens in the sharding layer under scalar
    # keys; the engine itself stays uncached (a shard's composite
    # result is not one cacheable summary).
    engine = ExperimentEngine(
        jobs=args.jobs,
        cache=None,
        job_timeout_s=args.job_timeout,
        max_job_attempts=args.max_job_attempts,
        retry_backoff_s=args.retry_backoff,
    )
    report = run_sharded_ensemble_job(spec, engine, cache=cache)
    print(
        f"{'seed':>6} {'avg C':>8} {'peak C':>8} {'aging yr':>9} "
        f"{'cyc yr':>9} {'thr/s':>9} {'done':>5}"
    )
    completed = []
    for member, summary in zip(spec.members, report.summaries):
        if summary is None:
            print(f"{member.seed:6d} {'-- shard failed; see below --':>48}")
            continue
        completed.append(summary)
        print(
            f"{member.seed:6d} {summary.average_temp_c:8.2f} "
            f"{summary.peak_temp_c:8.2f} {summary.aging_mttf_years:9.2f} "
            f"{summary.cycling_mttf_years:9.2f} {summary.throughput:9.4f} "
            f"{'yes' if summary.completed else 'no':>5}"
        )
    count = len(completed)
    if count:
        print(
            f"ensemble of {count}: "
            f"mean avg "
            f"{sum(s.average_temp_c for s in completed) / count:.2f} C, "
            f"mean aging MTTF "
            f"{sum(s.aging_mttf_years for s in completed) / count:.2f} yr"
        )
    stats = engine.stats.as_dict()
    print(
        f"{report.cache_hits} member(s) from cache, "
        f"{report.executed_members} executed across "
        f"{report.shards} shard(s); "
        f"recovered: {stats.get('retried', 0)} retried attempt(s), "
        f"{stats.get('timeouts', 0)} timeout(s), "
        f"{stats.get('pool_restarts', 0)} pool restart(s)"
    )
    for failure in report.failures:
        suffix = ", timed out" if failure.timed_out else ""
        print(
            f"FAILED {failure.label} [{failure.key[:12]}] "
            f"{failure.error_type}: {failure.message} "
            f"({failure.attempts} attempts, "
            f"{failure.duration_s:.1f} s{suffix})"
        )
    return 0 if report.ok else 1


def _command_ensemble(args: argparse.Namespace) -> int:
    if args.ensemble_command == "bench":
        return _command_ensemble_bench(args)
    return _command_ensemble_run(args)


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        BASELINE_FILENAME,
        all_rule_classes,
        lint_paths,
        load_baseline,
        render_human,
        render_json,
        save_baseline,
    )

    if args.list_rules:
        for code, cls in all_rule_classes().items():
            meta = cls.meta
            print(f"{code} [{meta.severity}] {meta.name}")
            print(f"    {meta.rationale}")
        return 0
    baseline_path = Path(args.baseline) if args.baseline else Path(BASELINE_FILENAME)
    baseline = {}
    if not args.fix_baseline and baseline_path.exists():
        baseline = load_baseline(baseline_path)
    try:
        report = lint_paths(
            args.paths or None, rules=args.rules, baseline=baseline
        )
    except KeyError as exc:
        print(exc.args[0])
        return 2
    if args.fix_baseline:
        count = save_baseline(baseline_path, report.active)
        print(f"baseline {baseline_path} rewritten with {count} finding(s)")
        return 0
    if args.json:
        print(render_json(report))
    else:
        print(render_human(report, verbose=args.verbose))
    return report.exit_code()


def _command_audit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import (
        AUDIT_BASELINE_FILENAME,
        AuditBaseline,
        MALFORMED_MARKER_CODE,
        all_audit_rule_classes,
        audit_project,
        closure_digest,
        explain_job_key,
        load_audit_baseline,
        render_audit_human,
        render_audit_json,
        render_closure_table,
        save_audit_baseline,
    )
    from repro.experiments.engine.cache import default_cache_root
    from repro.experiments.engine.spec import behavior_digest

    if args.list_rules:
        for code, cls in all_audit_rule_classes().items():
            meta = cls.meta
            print(f"{code} [{meta.severity}] {meta.name}")
            print(f"    {meta.rationale}")
        print(f"{MALFORMED_MARKER_CODE} [error] behavior-irrelevant marker "
              "without a reason")
        print("    every fingerprint opt-out must say why it cannot change "
              "behavior")
        return 0
    root = Path(args.root) if args.root else None
    if args.explain:
        digest = closure_digest(root) if root is not None else behavior_digest()
        print(explain_job_key(args.explain, default_cache_root(), digest))
        return 0
    baseline_path = (
        Path(args.baseline) if args.baseline else Path(AUDIT_BASELINE_FILENAME)
    )
    baseline = AuditBaseline()
    if not args.fix_baseline and baseline_path.exists():
        baseline = load_audit_baseline(baseline_path)
    try:
        report = audit_project(root, rules=args.rules, baseline=baseline)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    if args.fix_baseline:
        assert report.closure is not None
        count = save_audit_baseline(
            baseline_path,
            closure_digest=report.closure.digest,
            pairs=report.pairs,
            findings=report.active,
        )
        print(
            f"baseline {baseline_path} rewritten: closure "
            f"{report.closure.digest[:16]}, {len(report.pairs)} pair(s), "
            f"{count} finding(s)"
        )
        return 0
    if args.show_closure:
        print(render_closure_table(report))
        return 0
    if args.json:
        print(render_audit_json(report))
    else:
        print(render_audit_human(report, verbose=args.verbose))
    return report.exit_code(check_drift=args.check_drift)


def _command_list() -> int:
    print("artefacts   :", ", ".join(ARTEFACTS))
    print("applications:", ", ".join(APP_NAMES))
    print("policies    :", ", ".join(POLICIES))
    print("fault modes :", ", ".join(FAULT_MODES))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "ckpt":
        return _command_ckpt(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "ensemble":
        return _command_ensemble(args)
    if args.command == "lint":
        return _command_lint(args)
    if args.command == "audit":
        return _command_audit(args)
    if args.command == "all":
        return _command_all(args)
    experiment = ARTEFACTS[args.command]
    result = experiment(
        iteration_scale=args.scale, seed=args.seed, engine=_engine_from(args)
    )
    print(result.format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
