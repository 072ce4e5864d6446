"""The AST-driven project model: modules, symbols, import/call graph.

A :class:`ProjectModel` indexes every source file of a package tree by
dotted module name, and parses a module only the first time something
asks for it.  Parsing builds the lint layer's
:class:`~repro.analysis.lint.context.ModuleContext`, the module's
normalized behavior fingerprint (see
:mod:`repro.analysis.audit.fingerprint`) and its resolved dependency
edges:

* every ``import``/``from ... import`` — including lazy imports inside
  function bodies — adds an edge to the imported module *and* to each
  ancestor package (importing ``repro.x.y`` executes ``repro/__init__``
  and ``repro/x/__init__`` too);
* every dotted call or attribute access that resolves (through the
  context's import aliases) to a name under the package adds an edge to
  the longest matching module prefix.

The graph is what :mod:`repro.analysis.audit.closure` walks to derive
the behavior-closure digest, so the digest parses only the closure's
members.  The audit forces every module (:meth:`ProjectModel.force`)
before its rules decide which modules are reachable from the experiment
engine's worker processes.  Per-definition fingerprints and opt-out
markers are derived on first read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.analysis.audit.fingerprint import (
    DOCSTRING_OWNERS,
    DocstringOwner,
    Marker,
    fingerprint_module,
    fingerprint_node,
    marker_for,
    parse_markers,
    strip_docstring,
)
from repro.analysis.lint.context import (
    ModuleContext,
    add_import_aliases,
    module_for_path,
)

#: Every marker comment contains this token; files without it skip the scan.
_MARKER_TOKEN = "behavior-irrelevant"

Definition = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


@dataclass(frozen=True)
class SymbolInfo:
    """One fingerprinted top-level definition."""

    name: str
    kind: str
    line: int
    fingerprint: str


def _definitions(tree: ast.Module) -> Iterator[Definition]:
    """Every top-level ``def``/``class`` of a module, in source order."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt


@dataclass
class ModuleInfo:
    """One parsed, fingerprinted module of the project."""

    name: str
    path: str
    ctx: ModuleContext
    #: Resolved in-package dependency edges (sorted module names).
    imports: Tuple[str, ...] = ()
    #: Normalized whole-module fingerprint (opt-outs excluded).
    fingerprint: str = ""
    #: Every behavior-irrelevant marker comment, keyed by line.
    markers: Dict[int, Marker] = field(default_factory=dict)

    @cached_property
    def symbols(self) -> Dict[str, SymbolInfo]:
        """Fingerprints of every top-level ``def``/``class``, by name."""
        return {
            stmt.name: SymbolInfo(
                name=stmt.name,
                kind="class" if isinstance(stmt, ast.ClassDef) else "function",
                line=stmt.lineno,
                fingerprint=fingerprint_node(stmt),
            )
            for stmt in _definitions(self.ctx.tree)
        }

    @cached_property
    def irrelevant(self) -> Dict[str, str]:
        """Symbol name -> reason for every valid behavior-irrelevant marker."""
        irrelevant: Dict[str, str] = {}
        for stmt in _definitions(self.ctx.tree):
            marker = marker_for(stmt, self.markers)
            if marker is not None:
                irrelevant[stmt.name] = marker.reason
        return irrelevant

    @property
    def malformed_markers(self) -> Tuple[int, ...]:
        """Line numbers of reasonless behavior-irrelevant markers."""
        return tuple(
            line for line in sorted(self.markers) if not self.markers[line].valid
        )


def _package_root() -> Path:
    """Source directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def _iter_sources(root: Path) -> List[Path]:
    """Every ``*.py`` under ``root``, sorted for determinism."""
    return sorted(
        path for path in root.rglob("*.py") if "__pycache__" not in path.parts
    )


def _ancestors(module: str, package: str) -> List[str]:
    """``module`` plus every ancestor package down to ``package``."""
    parts = module.split(".")
    names: List[str] = []
    for depth in range(1, len(parts) + 1):
        candidate = ".".join(parts[:depth])
        if candidate == package or candidate.startswith(package + "."):
            names.append(candidate)
    return names


class _LazyModules(Mapping[str, ModuleInfo]):
    """Module name -> :class:`ModuleInfo`, each parsed on first access.

    Membership, iteration and length read only the path index; the
    ``Mapping`` default ``__contains__`` would parse the module.
    """

    def __init__(
        self, paths: Dict[str, Path], parse: Callable[[str, Path], ModuleInfo]
    ):
        self._paths = paths
        self._parse = parse
        self._parsed: Dict[str, ModuleInfo] = {}

    def __getitem__(self, name: str) -> ModuleInfo:
        info = self._parsed.get(name)
        if info is None:
            info = self._parse(name, self._paths[name])
            self._parsed[name] = info
        return info

    def __contains__(self, name: object) -> bool:
        return name in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


class ProjectModel:
    """A package tree: lazily parsed modules plus their dependency graph."""

    def __init__(self, root: Path, package: str, paths: Dict[str, Path]):
        self.root = root
        self.package = package
        #: Every module of the tree; indexing one parses it.
        self.modules: Mapping[str, ModuleInfo] = _LazyModules(paths, self._parse)

    @classmethod
    def build(cls, root: Optional[Path] = None) -> "ProjectModel":
        """Index the package tree at ``root`` (default: installed repro)."""
        resolved = Path(root).resolve() if root is not None else _package_root()
        paths = {module_for_path(path): path for path in _iter_sources(resolved)}
        return cls(resolved, resolved.name, paths)

    def force(self) -> "ProjectModel":
        """Parse every module and fingerprint every top-level definition."""
        for name in sorted(self.modules):
            self.modules[name].symbols  # a cached_property: reading computes it
        return self

    # ------------------------------------------------------------------
    # Parsing: one walk per module
    # ------------------------------------------------------------------

    def _parse(self, name: str, path: Path) -> ModuleInfo:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        package_parts = name.split(".")
        aliases: Dict[str, str] = {}
        edges: Set[str] = set()
        chains: List[ast.expr] = []
        owners: List[DocstringOwner] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                add_import_aliases(aliases, node)
                for item in node.names:
                    edges.update(self._edge_targets(item.name))
            elif isinstance(node, ast.ImportFrom):
                add_import_aliases(aliases, node)
                base = self._import_from_base(node, package_parts)
                if base is None:
                    continue
                edges.update(self._edge_targets(base))
                for item in node.names:
                    if item.name != "*":
                        edges.update(self._edge_targets(f"{base}.{item.name}"))
            elif isinstance(node, ast.Call):
                chains.append(node.func)
            elif isinstance(node, ast.Attribute):
                chains.append(node)
            elif isinstance(node, DOCSTRING_OWNERS):
                owners.append(node)
        ctx = ModuleContext(
            path=str(path),
            module=name,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            aliases=aliases,
        )
        # Call/attribute chains resolve against the module's final
        # aliases, so they wait until every import has been seen.
        for chain in chains:
            qualified = ctx.qualified_name(chain)
            if qualified is not None:
                edges.add(self._longest_module_prefix(qualified))
        edges.discard(name)
        edges.discard("")
        # The model's trees are normalized in place: docstrings are
        # removed here so every fingerprint can hash without
        # deep-copying.  Audit rules only inspect executable statements,
        # so they are unaffected; original source stays in ``ctx.lines``.
        for owner in owners:
            strip_docstring(owner)
        markers = parse_markers(ctx.lines) if _MARKER_TOKEN in source else {}
        return ModuleInfo(
            name=name,
            path=str(path),
            ctx=ctx,
            imports=tuple(sorted(edges)),
            fingerprint=fingerprint_module(tree, markers),
            markers=markers,
        )

    # ------------------------------------------------------------------
    # Graph resolution
    # ------------------------------------------------------------------

    def _edge_targets(self, module: str) -> List[str]:
        """Known modules an import of ``module`` executes (with ancestors)."""
        return [
            name for name in _ancestors(module, self.package) if name in self.modules
        ]

    def _import_from_base(
        self, node: ast.ImportFrom, package_parts: List[str]
    ) -> Optional[str]:
        """The absolute module a ``from ... import`` resolves against."""
        if node.level == 0:
            return node.module
        # Relative import: strip ``level`` components off the importing
        # module's package path (one level = the current package).
        base_parts = package_parts[: len(package_parts) - node.level]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _longest_module_prefix(self, qualified: str) -> str:
        """The longest known module that prefixes ``qualified`` ('' if none)."""
        parts = qualified.split(".")
        for depth in range(len(parts), 0, -1):
            candidate = ".".join(parts[:depth])
            if candidate in self.modules:
                return candidate
        return ""

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable(
        self,
        roots: Iterable[str],
        exclude_prefixes: Tuple[str, ...] = (),
    ) -> List[str]:
        """Modules transitively reachable from ``roots``, sorted.

        Roots that are not present in the tree are ignored (a fixture
        tree need not mirror the full package).  ``exclude_prefixes``
        prunes both membership and traversal — an excluded module's own
        imports are never followed, and it is never parsed on this
        account.
        """

        def excluded(name: str) -> bool:
            return any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in exclude_prefixes
            )

        seen: Set[str] = set()
        frontier: List[str] = sorted(
            name for name in roots if name in self.modules and not excluded(name)
        )
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for edge in self.modules[name].imports:
                if edge not in seen and not excluded(edge):
                    frontier.append(edge)
        return sorted(seen)


def project_module_for_path(path: Path) -> str:
    """Dotted module name of ``path`` (re-exported lint helper)."""
    return module_for_path(path)
