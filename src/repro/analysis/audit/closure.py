"""The behavior-closure digest: what the result cache is keyed on.

The *behavior closure* is everything transitively reachable — through
the project model's import/call graph — from the job executors: the
scalar runner entry points (:func:`repro.experiments.runner.run_workload`
/ ``run_scenario``), the vectorized ensemble engine, and checkpoint
capture.  The closure digest combines the normalized fingerprint of
every module in that set, so it changes exactly when a behavior-relevant
edit lands anywhere a cached :class:`~repro.experiments.runner.RunSummary`
could depend on, and stays put for docstring/comment/formatting edits.

:func:`repro.experiments.engine.spec.canonical_json` mixes the digest
into every job key, which is what makes the content-addressed result
cache *statically* sound: stale results are unreachable by construction
instead of by a remembered ``repro.__version__`` bump.

The analysis tooling itself (``repro.analysis.lint``,
``repro.analysis.audit``) is excluded from the closure — it measures
behavior, it does not produce it — and the digest document carries the
fingerprint schema version and the interpreter's ``major.minor`` tag,
so algorithm revisions and interpreter upgrades (whose ASTs and pickles
differ) re-key the cache too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.analysis.audit.fingerprint import FINGERPRINT_SCHEMA_VERSION
from repro.analysis.audit.project import ProjectModel

#: The job executors whose transitive imports define the closure.
CLOSURE_ROOTS: Tuple[str, ...] = (
    "repro.experiments.runner",
    "repro.ensemble.engine",
    "repro.ensemble.runner",
    "repro.checkpoint.state",
)

#: Tooling packages never included in the closure.
CLOSURE_EXCLUDES: Tuple[str, ...] = (
    "repro.analysis.audit",
    "repro.analysis.lint",
)


def python_tag() -> str:
    """``major.minor`` of the running interpreter (part of the digest)."""
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


@dataclass(frozen=True)
class ClosureReport:
    """The closure digest plus everything that went into it."""

    digest: str
    python: str
    roots: Tuple[str, ...]
    #: Module name -> normalized module fingerprint, every closure member.
    modules: Dict[str, str]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready document (sorted, reproducible)."""
        return {
            "digest": self.digest,
            "python": self.python,
            "roots": list(self.roots),
            "modules": {name: self.modules[name] for name in sorted(self.modules)},
        }


def compute_closure(
    model: ProjectModel,
    roots: Tuple[str, ...] = CLOSURE_ROOTS,
    excludes: Tuple[str, ...] = CLOSURE_EXCLUDES,
) -> ClosureReport:
    """Closure membership and digest of an already-built project model."""
    members = model.reachable(roots, exclude_prefixes=excludes)
    modules = {name: model.modules[name].fingerprint for name in members}
    payload = {
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "python": python_tag(),
        "roots": sorted(roots),
        "modules": {name: modules[name] for name in sorted(modules)},
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return ClosureReport(
        digest=digest,
        python=python_tag(),
        roots=tuple(sorted(roots)),
        modules=modules,
    )


_CLOSURE_CACHE: Dict[str, ClosureReport] = {}


def closure_report(root: Optional[Path] = None) -> ClosureReport:
    """The closure report for a package tree, memoised per resolved root.

    Parsing and fingerprinting the closure's modules costs well over
    half a second, and job-key derivation calls this for every spec, so
    the report is computed once per (process, root).  Only modules the
    closure reaches are parsed.  Tests that edit a tree in place must
    call :func:`clear_closure_cache` between edits.
    """
    key = str(Path(root).resolve()) if root is not None else ""
    cached = _CLOSURE_CACHE.get(key)
    if cached is None:
        cached = compute_closure(ProjectModel.build(root))
        _CLOSURE_CACHE[key] = cached
    return cached


def closure_digest(root: Optional[Path] = None) -> str:
    """The behavior-closure digest of a package tree (memoised)."""
    return closure_report(root).digest


def clear_closure_cache() -> None:
    """Drop every memoised closure report (tests editing trees in place)."""
    _CLOSURE_CACHE.clear()
