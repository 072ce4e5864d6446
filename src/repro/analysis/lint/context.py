"""Per-module lint context: parsed AST, source lines, import aliases.

Every rule receives one :class:`ModuleContext` per audited file.  The
context owns the AST, knows the module's dotted name (how rules decide
whether they are in scope) and resolves import aliases so a rule can ask
for the *canonical* dotted name of any ``Name``/``Attribute`` chain —
``rng.random()`` after ``import numpy.random as rng`` resolves to
``numpy.random.random``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.lint.findings import Finding, Severity


def module_for_path(path: Path) -> str:
    """Dotted module name of a source file inside the ``repro`` package.

    Falls back to the bare stem for files outside any ``repro`` package
    directory (fixtures, scratch files).
    """
    parts = list(path.resolve().parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[start:]]
        dotted[-1] = Path(dotted[-1]).stem
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return path.stem


def add_import_aliases(aliases: Dict[str, str], node: ast.AST) -> None:
    """Record the local names one import statement binds into ``aliases``.

    Called in ``ast.walk`` order, so a later import of a name wins.
    """
    if isinstance(node, ast.Import):
        for item in node.names:
            aliases[item.asname or item.name.split(".")[0]] = (
                item.name if item.asname else item.name.split(".")[0]
            )
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        for item in node.names:
            if item.name == "*":
                continue
            aliases[item.asname or item.name] = f"{node.module}.{item.name}"


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted module/object name."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        add_import_aliases(aliases, node)
    return aliases


@dataclass
class ModuleContext:
    """One audited source file, parsed and indexed for the rules."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: Optional[str] = None
    ) -> "ModuleContext":
        """Parse ``source``; ``module`` defaults from ``path``."""
        tree = ast.parse(source, filename=path)
        resolved = module or module_for_path(Path(path))
        return cls(
            path=path,
            module=resolved,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            aliases=_collect_aliases(tree),
        )

    @classmethod
    def from_file(cls, path: Path) -> "ModuleContext":
        """Read and parse one file."""
        return cls.from_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            module=module_for_path(path),
        )

    # ------------------------------------------------------------------
    # Helpers for rules
    # ------------------------------------------------------------------

    def source_line(self, lineno: int) -> str:
        """Stripped text of one 1-indexed source line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` chain.

        Resolves the chain's root through the module's import aliases,
        so the result is comparable against names like
        ``numpy.random.default_rng`` regardless of local ``as`` naming.
        Returns ``None`` for expressions that are not plain dotted names.
        """
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        chain.append(root)
        return ".".join(reversed(chain))

    def finding(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            module=self.module,
            line=line,
            col=col,
            message=message,
            source_line=self.source_line(line),
        )
