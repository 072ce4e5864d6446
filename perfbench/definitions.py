"""What the benchmark runs and what it reports.

``BENCHMARK.json`` at the root of the repository declares the same
workloads and metrics; :func:`perfbench.contract.check_declared` refuses a
run when the two disagree.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Iteration scale of both sweeps (``repro all --scale``); the lowest at
#: which every artefact has a non-empty measurement window is 0.12.
SWEEP_SCALE = 0.12

#: The Monte Carlo fleet: every (app, policy) cell is one sharded
#: ensemble job of ``FLEET_MEMBERS`` seeds at ``FLEET_SCALE``.
FLEET_APPS: Tuple[str, ...] = ("tachyon", "mpeg_dec")
FLEET_POLICIES: Tuple[str, ...] = ("linux", "proposed")
FLEET_MEMBERS = 52
FLEET_SCALE = 0.5

#: ``--seed`` picks one of this many input variants (``seed % VARIANTS``),
#: each with committed reference digests in ``reference.json``.
VARIANTS = 4

#: Fresh processes that measure set-up in one run, counting the
#: processes that also run the timed work.
MIN_SETUP_SAMPLES = 4

#: The artefacts ``repro all`` regenerates, in its order.
ARTEFACTS: Tuple[str, ...] = (
    "fig1",
    "table2",
    "fig3",
    "fig45",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "fig9",
    "ablation",
    "fault_tolerance",
    "montecarlo",
)

#: Workload name -> why it exists.
WORKLOADS: Dict[str, str] = {
    "sweep-cold": (
        "repro all into an empty cache, as after any behaviour edit: tick "
        "loop, cache writes, pool dispatch and per-artefact barriers"
    ),
    "ensemble-fleet": (
        "Monte Carlo fleet of sharded ensemble jobs without a cache: the "
        "vectorized engine and sharding; no scalar loop, no digest"
    ),
}


def sweep_seed(variant: int) -> int:
    """The ``repro all --seed`` of one input variant."""
    return variant + 1


def fleet_seed(variant: int) -> int:
    """The first member seed of every fleet cell of one input variant."""
    return 1 + 1000 * variant


#: name -> (unit, better, bound) of the end-to-end metrics.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sweep_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "completed_job_share": ("ratio", "higher", 0.01),
    "output_match_share": ("ratio", "higher", 0.01),
}

_SECONDS = ("s", "lower")
_COUNT = ("count", "lower")

#: name -> (unit, better) of the per-layer metrics of a traced run.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "startup.import_s": _SECONDS,
    "audit.closure_digest_s": _SECONDS,
    "setup.construct_s": _SECONDS,
    "spec.job_key_s": _SECONDS,
    "spec.job_key_calls": _COUNT,
    "cache.get_s": _SECONDS,
    "cache.get_calls": _COUNT,
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.put_s": _SECONDS,
    "cache.put_calls": _COUNT,
    "scheduler.batches": _COUNT,
    "scheduler.jobs_submitted": _COUNT,
    "scheduler.jobs_executed": _COUNT,
    "scheduler.deduplicated": ("count", "higher"),
    "scheduler.retried": _COUNT,
    "scheduler.failed": _COUNT,
    "scheduler.batch_wall_s": _SECONDS,
    "scheduler.dispatch_wait_s": _SECONDS,
    "scheduler.worker_busy_s": _SECONDS,
    "scheduler.parallel_efficiency": ("ratio", "higher"),
    "runner.build_s": _SECONDS,
    "simulator.run_s": _SECONDS,
    "simulator.ticks": _COUNT,
    "tick.schedule_s": _SECONDS,
    "tick.app_s": _SECONDS,
    "tick.governor_s": _SECONDS,
    "tick.power_s": _SECONDS,
    "tick.thermal_s": _SECONDS,
    "tick.sensors_s": _SECONDS,
    "tick.manager_s": _SECONDS,
    "reliability.summarise_s": _SECONDS,
    "ens.run_s": _SECONDS,
    "ens.schedule_s": _SECONDS,
    "ens.app_s": _SECONDS,
    "ens.governor_s": _SECONDS,
    "ens.chip_s": _SECONDS,
    "ens.sensors_s": _SECONDS,
    "ens.manager_s": _SECONDS,
    "ens.advance_s": _SECONDS,
    "ensemble.members": _COUNT,
    "ensemble.traj_ticks": _COUNT,
    "ensemble.shards": _COUNT,
    "shard.imbalance": ("ratio", "lower"),
    **{f"artefact.{name}_s": _SECONDS for name in ARTEFACTS},
    "artefact.format_write_s": _SECONDS,
    "trace.sweep_s": _SECONDS,
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}

#: The largest ``trace.unattributed_share`` a traced run may show.
MAX_UNATTRIBUTED_SHARE = 0.05
