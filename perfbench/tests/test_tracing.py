"""Self-time, attribution and imbalance arithmetic, and the wrappers."""

import math

import pytest

from perfbench import tracing


def span(name, parent, seconds, start=None):
    record = {"name": name, "parent": parent, "seconds": seconds}
    if start is not None:
        record.update(start=start, end=start + seconds)
    return record


def tree():
    # sweep [0, 10] -> a [1, 4] -> b [2, 3]; sweep -> c [5, 6] -> timer phase 0.25
    return [
        span("sweep", None, 10.0, 0.0),
        span("a", 0, 3.0, 1.0),
        span("b", 1, 1.0, 2.0),
        span("c", 0, 1.0, 5.0),
        span("tick.app", 3, 0.25),
    ]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(tree()) == [6.0, 2.0, 1.0, 0.75, 0.25]


def test_self_times_add_back_to_the_root():
    spans = tree()
    assert math.isclose(sum(tracing.self_times(spans)), spans[0]["seconds"])


def test_attribution_splits_root_over_layers():
    result = tracing.attribution(tree(), "sweep")
    assert result["total_s"] == 10.0
    assert result["layers"] == {"a": 2.0, "b": 1.0, "c": 0.75, "tick.app": 0.25}
    assert result["unattributed_s"] == 6.0
    assert result["unattributed_share"] == 0.6
    assert math.isclose(
        sum(result["layers"].values()) + result["unattributed_s"], result["total_s"]
    )


def test_attribution_needs_one_top_level_root():
    with pytest.raises(ValueError):
        tracing.attribution(tree() + [span("sweep", None, 1.0)], "sweep")
    with pytest.raises(ValueError):
        tracing.attribution(tree(), "missing")


def test_layer_seconds_sums_names_over_records():
    records = [
        {"pid": 1, "spans": tree(), "counters": {}},
        {"pid": 2, "spans": [span("b", None, 2.0), span("tick.app", 0, 0.5)], "counters": {}},
    ]
    totals = tracing.layer_seconds(records)
    assert totals["b"] == 1.0 + 1.5
    assert totals["tick.app"] == 0.75


def test_shard_imbalance_groups_jobs_by_batch():
    batches = [(0.0, 10.0), (20.0, 30.0), (40.0, 50.0)]
    jobs = [(1.0, 4.0), (1.0, 2.0), (21.0, 3.0), (21.0, 3.0)]
    # batch 1: max 4 / mean 3; batch 2: 1.0; batch 3 has no shard jobs.
    assert math.isclose(tracing.shard_imbalance(batches, jobs), (4 / 3 + 1.0) / 2)
    assert tracing.shard_imbalance(batches, []) == 0.0


def test_tracer_nests_spans_and_counts(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    with tracer.span("outer"):
        with tracer.span("inner", members=3):
            tracer.timed("tick.app", 0.0)
        tracer.count("calls")
        tracer.count("calls", 2)
    outer, inner, phase = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0 and phase["parent"] == 1
    assert inner["members"] == 3
    assert outer["seconds"] >= inner["seconds"] >= 0.0
    assert tracer.counters == {"calls": 3}
    tracer.flush()  # the traced process never spools
    assert not list(tmp_path.iterdir())


def test_install_wraps_and_uninstall_restores(tmp_path):
    from repro.experiments.engine import cache, scheduler, spec, sweep
    from repro.soc.simulator import Simulation

    originals = (
        spec.job_key,
        cache.ResultCache.get,
        scheduler.execute_job,
        Simulation.run,
        dict(sweep.ARTEFACTS),
    )
    tracing.install(tracing.Tracer(tmp_path))
    try:
        assert scheduler.execute_job is tracing.traced_execute_job
        assert spec.job_key is not originals[0]
        assert cache.job_key is spec.job_key
    finally:
        tracing.uninstall()
    assert (
        spec.job_key,
        cache.ResultCache.get,
        scheduler.execute_job,
        Simulation.run,
        dict(sweep.ARTEFACTS),
    ) == originals


def test_tracing_only_observes_a_run(tmp_path):
    from repro.experiments.engine.scheduler import ExperimentEngine
    from repro.experiments.engine.spec import workload_job

    from perfbench.reference import summaries_digest

    job = workload_job("tachyon", policy="proposed", seed=3, iteration_scale=0.1)
    plain = ExperimentEngine().run([job])
    tracer = tracing.Tracer(tmp_path)
    tracing.install(tracer)
    try:
        with tracer.span("sweep"):
            traced = ExperimentEngine().run([job])
    finally:
        tracing.uninstall()
    assert summaries_digest(traced) == summaries_digest(plain)
    names = {span["name"] for span in tracer.spans}
    assert {"scheduler.batch", "scheduler.job", "runner", "simulator.run"} <= names
    assert "tick.schedule" in names and "reliability.summarise" in names
    assert tracer.counters["simulator.ticks"] > 0
    assert tracing.attribution(tracer.spans, "sweep")["unattributed_share"] < 0.05
