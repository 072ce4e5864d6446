"""The audit engine: build the project model, run rules, bin findings.

Mirrors the lint engine's three-bin contract (active / suppressed /
baselined, ``# repro: noqa[RULE] reason=...`` suppressions reused
verbatim) and adds the project-level outputs the audit exists for: the
behavior-closure digest, its drift against the committed baseline, and
the current scalar/ensemble pairing fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.audit.baseline import AuditBaseline, PairRecord
from repro.analysis.audit.closure import (
    ClosureReport,
    compute_closure,
)
from repro.analysis.audit.fingerprint import MALFORMED_MARKER_CODE
from repro.analysis.audit.project import ProjectModel
from repro.analysis.audit.registry import AuditRule, build_audit_rules
from repro.analysis.audit.rules import TWIN_MODULES, pair_id
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.suppress import (
    Suppression,
    parse_suppressions,
    suppresses,
)


@dataclass
class AuditReport:
    """The outcome of one audit run."""

    rules: List[AuditRule] = field(default_factory=list)
    files: int = 0
    active: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    closure: Optional[ClosureReport] = None
    #: Current fingerprints of every registered scalar/ensemble pair.
    pairs: Dict[str, PairRecord] = field(default_factory=dict)
    #: Digest recorded in the committed baseline ('' without one).
    baseline_digest: str = ""
    #: Whether the baseline's fingerprints compare on this interpreter.
    baseline_comparable: bool = False

    @property
    def drift(self) -> bool:
        """Closure digest drifted from a comparable committed baseline."""
        return (
            self.baseline_comparable
            and self.closure is not None
            and bool(self.baseline_digest)
            and self.closure.digest != self.baseline_digest
        )

    @property
    def clean(self) -> bool:
        """True when no finding fails the build."""
        return not self.active

    def exit_code(self, check_drift: bool = False) -> int:
        """Process exit code: 0 clean (and drift-free when checked)."""
        if not self.clean:
            return 1
        if check_drift and self.drift:
            return 1
        return 0

    def sort(self) -> None:
        """Deterministic ordering: path, line, column, rule."""
        for bucket in (self.active, self.suppressed, self.baselined):
            bucket.sort(key=lambda f: (f.path, f.line, f.col, f.rule))


def current_pairs(model: ProjectModel) -> Dict[str, PairRecord]:
    """Fingerprints of every registered pair present in the tree."""
    pairs: Dict[str, PairRecord] = {}
    for scalar, ensemble in TWIN_MODULES:
        scalar_info = model.modules.get(scalar)
        twin_info = model.modules.get(ensemble)
        if scalar_info is None or twin_info is None:
            continue
        pairs[pair_id(scalar, ensemble)] = PairRecord(
            scalar=scalar_info.fingerprint, ensemble=twin_info.fingerprint
        )
    return pairs


def _marker_findings(model: ProjectModel) -> List[Finding]:
    """IRR001 findings for reasonless behavior-irrelevant markers."""
    findings: List[Finding] = []
    for name in sorted(model.modules):
        info = model.modules[name]
        for line in info.malformed_markers:
            findings.append(
                Finding(
                    rule=MALFORMED_MARKER_CODE,
                    severity=Severity.ERROR,
                    path=info.path,
                    module=info.name,
                    line=line,
                    col=0,
                    message=(
                        "behavior-irrelevant marker is missing its mandatory "
                        "reason= clause; the definition stays fingerprinted"
                    ),
                    source_line=info.ctx.source_line(line),
                )
            )
    return findings


def audit_project(
    root: Optional[Path] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[AuditBaseline] = None,
) -> AuditReport:
    """Audit a package tree (default: the installed ``repro`` package).

    Builds the project model once, forces every module of it, and shares
    it between the closure digest, the pairing table and every rule.
    """
    resolved_baseline = baseline if baseline is not None else AuditBaseline()
    model = ProjectModel.build(root).force()
    report = AuditReport(rules=build_audit_rules(rules))
    report.files = len(model.modules)
    report.closure = compute_closure(model)
    report.pairs = current_pairs(model)
    report.baseline_digest = resolved_baseline.closure_digest
    report.baseline_comparable = resolved_baseline.comparable

    raw: List[Finding] = list(_marker_findings(model))
    for rule in report.rules:
        raw.extend(rule.check(model, resolved_baseline))

    suppression_cache: Dict[str, Dict[int, Suppression]] = {}
    for finding in raw:
        info = model.modules.get(finding.module)
        if info is not None:
            if finding.module not in suppression_cache:
                suppression_cache[finding.module] = parse_suppressions(
                    info.ctx.lines
                )
            suppressions = suppression_cache[finding.module]
        else:
            suppressions = {}
        suppression = suppressions.get(finding.line)
        if suppression is not None and suppresses(suppression, finding.rule):
            report.suppressed.append(finding)
        elif finding.fingerprint() in resolved_baseline.findings:
            report.baselined.append(finding)
        else:
            report.active.append(finding)
    report.sort()
    return report
