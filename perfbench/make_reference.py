"""Write ``perfbench/reference.json``: the digests and exact counts runs check.

Usage, from the root of the repository::

    python3 perfbench/make_reference.py

Runs one traced cold sweep and one traced fleet per input variant and
records their artefact digests, fleet cell digests, engine counters,
scalar ticks and ensemble trajectory ticks.  Regenerate it only when a
change means to move the program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench import definitions, provenance  # noqa: E402
from perfbench.reference import REFERENCE_PATH  # noqa: E402
from perfbench.run import Scratch, base_config, parameters, spawn  # noqa: E402


def main() -> int:
    jobs = provenance.nproc()
    scratch = Scratch()
    sweeps, fleets = [], []
    try:
        spawn({"mode": "prime"}, scratch.path)
        for variant in range(definitions.VARIANTS):
            for workload, entries in (("sweep-cold", sweeps), ("ensemble-fleet", fleets)):
                cache = scratch.fresh("cache-")
                run = spawn(
                    dict(
                        base_config(workload, variant, jobs),
                        cache_dir=str(cache),
                        trace=True,
                        spool=str(scratch.fresh("spool-")),
                    ),
                    cache,
                )
                if run["errors"] or run["completed"] != run["submitted"]:
                    print(f"{workload} variant {variant} failed: {run['errors']}")
                    return 1
                counters = run["trace"]["counters"]
                entry = {"seed": base_config(workload, variant, jobs)["seed"]}
                if workload == "sweep-cold":
                    stats = run["stats"]
                    entry.update(
                        artefacts=run["outputs"],
                        submitted=stats["submitted"],
                        executed=stats["executed"],
                        cache_hits=stats["cache_hits"],
                        deduplicated=stats["deduplicated"],
                        simulator_ticks=counters["simulator.ticks"],
                    )
                else:
                    entry.update(
                        cells=run["outputs"],
                        submitted=run["submitted"],
                        traj_ticks=counters["ensemble.traj_ticks"],
                    )
                entries.append(entry)
                print(f"{workload} variant {variant}: {run['wall_s']:.1f} s")
    finally:
        scratch.close()
    document = {"parameters": parameters(), "sweep": sweeps, "fleet": fleets}
    REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
