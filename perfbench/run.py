"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the full report (``report: {...}``), with
provenance, every sample and, for a traced run, the attribution table.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench import contract, definitions, provenance  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A benchmark process exited non-zero, timed out or printed no result."""


class Scratch:
    """Temporary directories under the checkout, removed on exit."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def fresh(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _stop(proc: subprocess.Popen, patience_s: float = 5.0) -> None:
    """Kill a child's process group, reap the child, wait for the rest to go."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return  # the child exited and left no workers behind
    proc.wait()
    deadline = time.monotonic() + patience_s
    try:
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def spawn(config: dict, cache_root: Path) -> dict:
    """Run one child process and return the JSON object it printed last."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_root))
    # The closure digest is part of every real set-up; a pinned digest
    # would skip it.
    env.pop("REPRO_CLOSURE_DIGEST", None)
    env.pop("REPRO_CLOSURE_ROOT", None)
    config = dict(config, spawned=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(config)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{config['mode']} child timed out after {CHILD_TIMEOUT_S} s")
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{config['mode']} child exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def base_config(workload: str, variant: int, jobs: int) -> dict:
    """Child settings of one workload and input variant."""
    if workload == "sweep-cold":
        return {
            "kind": "sweep",
            "mode": "sweep",
            "jobs": jobs,
            "scale": definitions.SWEEP_SCALE,
            "seed": definitions.sweep_seed(variant),
        }
    return {
        "kind": "fleet",
        "mode": "fleet",
        "jobs": jobs,
        "scale": definitions.FLEET_SCALE,
        "seed": definitions.fleet_seed(variant),
        "members": definitions.FLEET_MEMBERS,
        "apps": list(definitions.FLEET_APPS),
        "policies": list(definitions.FLEET_POLICIES),
    }


def parameters() -> dict:
    """The workload parameters a reference is valid for."""
    return {
        "sweep_scale": definitions.SWEEP_SCALE,
        "fleet_scale": definitions.FLEET_SCALE,
        "fleet_members": definitions.FLEET_MEMBERS,
        "fleet_apps": list(definitions.FLEET_APPS),
        "fleet_policies": list(definitions.FLEET_POLICIES),
        "variants": definitions.VARIANTS,
        "sweep_seeds": [definitions.sweep_seed(v) for v in range(definitions.VARIANTS)],
        "fleet_seeds": [definitions.fleet_seed(v) for v in range(definitions.VARIANTS)],
    }


def check_run(workload: str, run: dict, expected: dict, jobs: int) -> List[str]:
    """Problems of one timed run against the committed reference."""
    from perfbench.reference import compare

    matched, checked, problems = compare(run["outputs"], expected["outputs"])
    run["matched"], run["checked"] = matched, checked
    problems += run["errors"]
    stats = run["stats"]
    if workload == "sweep-cold":
        wanted = {
            name: expected[name]
            for name in ("submitted", "executed", "cache_hits", "deduplicated")
        }
    else:
        shards = len(expected["outputs"]) * min(jobs, definitions.FLEET_MEMBERS)
        wanted = {"shards": shards, "executed": shards}
        if run["submitted"] != expected["submitted"]:
            problems.append(f"members: {run['submitted']} != {expected['submitted']}")
    for name, value in wanted.items():
        if stats.get(name) != value:
            problems.append(f"{name}: {stats.get(name)} != {value}")
    return problems


def check_trace(workload: str, traced: dict, untraced: dict, expected: dict) -> List[str]:
    """Problems of a traced process: outputs and exact counts must match."""
    problems = []
    if traced["outputs"] != untraced["outputs"]:
        problems.append("traced outputs differ from the untraced run's")
    if traced["stats"] != untraced["stats"]:
        problems.append("traced engine counters differ from the untraced run's")
    counters = traced["trace"]["counters"]
    exact = {
        "simulator.ticks": expected["simulator_ticks"] if workload == "sweep-cold" else 0,
        "ensemble.traj_ticks": expected.get("traj_ticks", 0),
        "ensemble.members": expected["submitted"] if workload == "ensemble-fleet" else 0,
    }
    for name, value in exact.items():
        if counters.get(name, 0) != value:
            problems.append(f"{name}: {counters.get(name, 0)} != {value}")
    share = traced["trace"]["attribution"]["unattributed_share"]
    if share > definitions.MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"layer self-times leave {share:.1%} of the traced work unattributed"
        )
    return problems


def expected_for(workload: str, variant: int, reference: dict) -> dict:
    """The reference entry one workload and variant is checked against."""
    if reference.get("parameters") != parameters():
        raise ValueError("reference.json was made for other workload parameters")
    if workload == "sweep-cold":
        entry = reference["sweep"][variant]
        return dict(entry, outputs=entry["artefacts"])
    entry = reference["fleet"][variant]
    return dict(entry, outputs=entry["cells"])


def layer_metrics(traced: dict, untraced: dict, setups: List[dict]) -> Dict[str, float]:
    """Every per-layer metric from one traced process and its untraced twin."""
    trace = traced["trace"]
    layers, counters, stats = trace["layers"], trace["counters"], traced["stats"]
    gets = counters.get("cache.get_calls", 0)
    capacity = trace["batch_wall_s"] * trace["workers"]
    metrics = {
        "startup.import_s": statistics.median(s["import_s"] for s in setups),
        "audit.closure_digest_s": statistics.median(s["digest_s"] for s in setups),
        "setup.construct_s": statistics.median(s["construct_s"] for s in setups),
        "spec.job_key_s": layers.get("spec.job_key", 0.0),
        "spec.job_key_calls": counters.get("spec.job_key_calls", 0),
        "cache.get_s": layers.get("cache.get", 0.0),
        "cache.get_calls": gets,
        "cache.hit_ratio": counters.get("cache.hits", 0) / gets if gets else 0.0,
        "cache.put_s": layers.get("cache.put", 0.0),
        "cache.put_calls": counters.get("cache.put_calls", 0),
        "scheduler.batches": counters.get("scheduler.batches", 0),
        "scheduler.jobs_submitted": stats["submitted"],
        "scheduler.jobs_executed": stats["executed"],
        "scheduler.deduplicated": stats["deduplicated"],
        "scheduler.retried": stats["retried"],
        "scheduler.failed": stats["failed"],
        "scheduler.batch_wall_s": trace["batch_wall_s"],
        "scheduler.dispatch_wait_s": layers.get("scheduler.batch", 0.0),
        "scheduler.worker_busy_s": trace["worker_busy_s"],
        "scheduler.parallel_efficiency": (
            trace["worker_busy_s"] / capacity if capacity > 0.0 else 0.0
        ),
        "runner.build_s": layers.get("runner", 0.0),
        "simulator.run_s": layers.get("simulator.run", 0.0),
        "simulator.ticks": counters.get("simulator.ticks", 0),
        "reliability.summarise_s": layers.get("reliability.summarise", 0.0),
        "ens.run_s": layers.get("ensemble.run", 0.0),
        "ensemble.members": counters.get("ensemble.members", 0),
        "ensemble.traj_ticks": counters.get("ensemble.traj_ticks", 0),
        "ensemble.shards": stats.get("shards", 0),
        "shard.imbalance": trace["shard_imbalance"],
        "artefact.format_write_s": layers.get("artefact.format_write", 0.0),
        "trace.sweep_s": traced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        "trace.unattributed_share": trace["attribution"]["unattributed_share"],
    }
    for phase in ("schedule", "app", "governor", "power", "thermal", "sensors", "manager"):
        metrics[f"tick.{phase}_s"] = layers.get(f"tick.{phase}", 0.0)
    for phase in ("schedule", "app", "governor", "chip", "sensors", "manager", "advance"):
        metrics[f"ens.{phase}_s"] = layers.get(f"ens.{phase}", 0.0)
    for name in definitions.ARTEFACTS:
        metrics[f"artefact.{name}_s"] = trace["artefact_wall"].get(name, 0.0)
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool, scratch: Scratch) -> dict:
    """Run one workload; return its metrics, counts and report."""
    from perfbench.reference import load_reference

    jobs = provenance.nproc()
    variant = seed % definitions.VARIANTS
    expected = expected_for(workload, variant, load_reference())
    config = base_config(workload, variant, jobs)
    problems: List[str] = []

    spawn({"mode": "prime"}, scratch.path)

    def process(traced: bool = False) -> dict:
        cache_dir = scratch.fresh("cache-")
        started = time.perf_counter()
        result = spawn(
            dict(
                config,
                cache_dir=str(cache_dir),
                trace=traced,
                spool=str(scratch.fresh("spool-")),
            ),
            cache_dir,
        )
        result["process_s"] = time.perf_counter() - started
        problems.extend(check_run(workload, result, expected, jobs))
        return result

    processes = []
    traced = None
    if trace:
        processes.append(process())
        traced = process(traced=True)
    else:
        # Start whole processes until --seconds have passed.  The host
        # drifts over tens of seconds, so a run of several processes
        # reports a steadier median than one process can.
        deadline = time.perf_counter() + seconds
        while not processes or time.perf_counter() < deadline:
            processes.append(process())
    measured = processes + ([traced] if traced else [])
    setups = [p["setup"] for p in measured]
    while len(setups) < definitions.MIN_SETUP_SAMPLES:
        cache_dir = scratch.fresh("setup-")
        setups.append(spawn(dict(config, mode="setup", cache_dir=str(cache_dir)), cache_dir)["setup"])

    submitted = sum(p["submitted"] for p in measured)
    completed = sum(p["completed"] for p in measured)
    checked = sum(p["checked"] for p in measured)
    matched = sum(p["matched"] for p in measured)
    metrics: Dict[str, float]
    if traced is not None:
        problems += check_trace(workload, traced, processes[0], expected)
        metrics = layer_metrics(traced, processes[0], setups)
    else:
        metrics = {
            "setup_s": statistics.median(s["total_s"] for s in setups),
            "sweep_s": statistics.median(p["wall_s"] for p in processes),
            "cpu_s": statistics.median(p["cpu_s"] for p in processes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in processes),
            "completed_job_share": completed / submitted if submitted else 0.0,
            "output_match_share": matched / checked if checked else 0.0,
        }
    report = {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "trace": trace,
        "jobs": jobs,
        "problems": problems,
        "setups": setups,
        "processes": [
            {
                key: p[key]
                for key in ("process_s", "wall_s", "cpu_s", "peak_rss_mb", "stats")
            }
            for p in measured
        ],
    }
    if traced is not None:
        report["attribution"] = traced["trace"]["attribution"]
        report["busy_layers"] = traced["trace"]["layers"]
    return {
        "metrics": metrics,
        "correct": not problems and completed == submitted and matched == checked,
        "attempted": submitted + checked,
        "failed": (submitted - completed) + (checked - matched),
        "report": report,
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    doc, errors = contract.load(ROOT / "BENCHMARK.json")
    if not errors:
        errors = contract.check_declared(
            doc, definitions.WORKLOADS, definitions.END_TO_END, definitions.PER_LAYER
        )
    if args.workload not in definitions.WORKLOADS:
        errors.append(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        errors.append(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    if args.seconds < 1:
        errors.append("--seconds must be at least 1")
    if errors:
        for error in errors:
            print(f"perfbench: {error}", file=sys.stderr)
        return 2

    stamp = {"host": provenance.host_stamp(ROOT), "before": provenance.load_stamp()}
    scratch = Scratch()
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except (ChildFailed, ValueError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        scratch.close()
    stamp["after"] = provenance.load_stamp()
    if stamp["before"]["steal_s"] is not None and stamp["after"]["steal_s"] is not None:
        stamp["steal_during_run_s"] = stamp["after"]["steal_s"] - stamp["before"]["steal_s"]
    outcome["report"]["provenance"] = stamp

    units = definitions.PER_LAYER if args.trace else definitions.END_TO_END
    metrics = {name: (outcome["metrics"][name], units[name][0]) for name in units}
    for problem in outcome["report"]["problems"]:
        print(f"problem: {problem}")
    print("report: " + json.dumps(outcome["report"], sort_keys=True))
    print(
        contract.result_line(
            outcome["correct"], outcome["attempted"], outcome["failed"], metrics
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
