"""Run orchestration: the reference checks of one run and child clean-up."""

import os
import subprocess
import sys
import time

from perfbench import run
from perfbench.reference import load_reference


def sweep_run(expected, **stats):
    counts = {
        "submitted": expected["submitted"],
        "executed": expected["executed"],
        "cache_hits": expected["cache_hits"],
        "deduplicated": expected["deduplicated"],
    }
    counts.update(stats)
    return {"outputs": dict(expected["outputs"]), "errors": [], "stats": counts}


def test_cold_run_matching_the_reference_has_no_problems():
    expected = run.expected_for("sweep-cold", 1, load_reference())
    assert run.check_run("sweep-cold", sweep_run(expected), expected, 2) == []


def test_cold_run_with_other_counts_is_refused():
    expected = run.expected_for("sweep-cold", 1, load_reference())
    rerun = sweep_run(expected, executed=0, cache_hits=expected["submitted"])
    assert run.check_run("sweep-cold", rerun, expected, 2) == [
        f"executed: 0 != {expected['executed']}",
        f"cache_hits: {expected['submitted']} != {expected['cache_hits']}",
    ]


def test_fleet_must_run_one_shard_per_worker_and_cell():
    expected = run.expected_for("ensemble-fleet", 0, load_reference())
    fleet = {
        "outputs": dict(expected["outputs"]),
        "errors": [],
        "submitted": expected["submitted"],
        "stats": {"shards": 8, "executed": 8},
    }
    assert run.check_run("ensemble-fleet", fleet, expected, 2) == []
    assert run.check_run("ensemble-fleet", fleet, expected, 3) == [
        "shards: 8 != 12",
        "executed: 8 != 12",
    ]


def test_stop_kills_workers_a_child_left_behind():
    # The child starts a long-lived worker in its process group and exits.
    code = (
        "import subprocess, sys; "
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'], "
        "stdout=subprocess.DEVNULL); "
        "print(p.pid)"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    worker = int(proc.communicate(timeout=30)[0])
    started = time.monotonic()
    run._stop(proc)
    assert time.monotonic() - started < 10
    try:
        os.kill(worker, 0)
    except ProcessLookupError:
        return
    # Still in the table only as a zombie waiting for init to reap it.
    with open(f"/proc/{worker}/stat") as handle:
        assert handle.read().split()[2] == "Z"
