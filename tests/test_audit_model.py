"""Tests for the audit project model: fingerprints, graph, closure.

Fixture trees are written under ``<tmp>/repro/...`` so that
``module_for_path`` derives real dotted module names, exactly as it does
for the installed package.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import repro.analysis.audit.project as project_module
from repro.analysis.audit import (
    AUDIT_BASELINE_FILENAME,
    CLOSURE_ROOTS,
    Marker,
    ProjectModel,
    audit_project,
    clear_closure_cache,
    closure_digest,
    closure_report,
    compute_closure,
    fingerprint_module,
    fingerprint_node,
    load_audit_baseline,
    normalized_dump,
    parse_markers,
    python_tag,
    strip_docstrings,
)
from repro.analysis.lint.context import ModuleContext


def write_tree(root, files):
    """Write ``{relative_path: source}`` under ``root / 'repro'``."""
    package = root / "repro"
    for relative, source in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    init = package / "__init__.py"
    if not init.exists():
        init.write_text("", encoding="utf-8")
    return package


def build(root, files):
    return ProjectModel.build(write_tree(root, files))


# ---------------------------------------------------------------------------
# Import / call graph
# ---------------------------------------------------------------------------


class TestGraph:
    def test_plain_and_from_imports_resolve(self, tmp_path):
        model = build(
            tmp_path,
            {
                "a.py": "import repro.b\n",
                "b.py": "from repro.c import helper\n",
                "c.py": "def helper():\n    return 1\n",
            },
        )
        assert "repro.b" in model.modules["repro.a"].imports
        assert "repro.c" in model.modules["repro.b"].imports

    def test_lazy_in_function_import_is_an_edge(self, tmp_path):
        model = build(
            tmp_path,
            {
                "a.py": """
                def run():
                    from repro.b import helper

                    return helper()
                """,
                "b.py": "def helper():\n    return 2\n",
            },
        )
        assert "repro.b" in model.modules["repro.a"].imports

    def test_relative_import_resolves(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "from . import b\nfrom .b import helper\n",
                "pkg/b.py": "def helper():\n    return 3\n",
            },
        )
        assert "repro.pkg.b" in model.modules["repro.pkg.a"].imports

    def test_importing_a_submodule_pulls_ancestor_inits(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "SIDE_EFFECT = 1\n",
                "pkg/deep.py": "def f():\n    return 4\n",
                "a.py": "import repro.pkg.deep\n",
            },
        )
        imports = model.modules["repro.a"].imports
        assert "repro.pkg" in imports
        assert "repro.pkg.deep" in imports

    def test_attribute_call_edge_via_longest_module_prefix(self, tmp_path):
        model = build(
            tmp_path,
            {
                "a.py": """
                import repro

                def run():
                    return repro.pkg.deep.f()
                """,
                "pkg/__init__.py": "",
                "pkg/deep.py": "def f():\n    return 5\n",
            },
        )
        assert "repro.pkg.deep" in model.modules["repro.a"].imports

    def test_reachable_follows_transitive_edges(self, tmp_path):
        model = build(
            tmp_path,
            {
                "runner.py": "import repro.mid\n",
                "mid.py": "import repro.leaf\n",
                "leaf.py": "X = 1\n",
                "island.py": "Y = 2\n",
            },
        )
        members = model.reachable(("repro.runner",))
        assert "repro.leaf" in members
        assert "repro.island" not in members

    def test_reachable_prunes_excluded_prefixes(self, tmp_path):
        model = build(
            tmp_path,
            {
                "runner.py": "import repro.tools.probe\n",
                "tools/__init__.py": "",
                "tools/probe.py": "import repro.leaf\n",
                "leaf.py": "X = 1\n",
            },
        )
        members = model.reachable(
            ("repro.runner",), exclude_prefixes=("repro.tools",)
        )
        assert "repro.tools.probe" not in members
        # Traversal is pruned too: the leaf is only reachable through
        # the excluded module, so it must not appear.
        assert "repro.leaf" not in members

    def test_missing_roots_are_ignored(self, tmp_path):
        model = build(tmp_path, {"a.py": "X = 1\n"})
        assert model.reachable(("repro.nope", "repro.a")) == ["repro.a"]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


BEHAVIOR = """
def scale(value):
    return value * 2.0
"""

DOCUMENTED = '''
# an explanatory comment


def scale(value):
    """Twice the value."""
    # inline commentary
    return value * 2.0
'''


class TestFingerprints:
    def fingerprint(self, tmp_path, name, source):
        root = tmp_path / name
        model = build(root, {"m.py": source})
        return model.modules["repro.m"].fingerprint

    def test_docstrings_comments_and_line_shifts_are_invisible(self, tmp_path):
        assert self.fingerprint(tmp_path, "bare", BEHAVIOR) == self.fingerprint(
            tmp_path, "documented", DOCUMENTED
        )

    def test_constant_change_is_visible(self, tmp_path):
        edited = BEHAVIOR.replace("2.0", "3.0")
        assert self.fingerprint(tmp_path, "bare", BEHAVIOR) != self.fingerprint(
            tmp_path, "edited", edited
        )

    def test_symbols_are_fingerprinted_individually(self, tmp_path):
        model = build(
            tmp_path,
            {
                "m.py": """
                def f():
                    return 1


                class C:
                    LIMIT = 4
                """,
            },
        )
        symbols = model.modules["repro.m"].symbols
        assert symbols["f"].kind == "function"
        assert symbols["C"].kind == "class"
        assert symbols["f"].fingerprint != symbols["C"].fingerprint

    def test_normalized_dump_strips_docstrings_without_mutating(self):
        tree = ast.parse('def f():\n    """doc"""\n    return 1\n')
        dumped = normalized_dump(tree)
        assert "doc" not in dumped
        # The caller's tree is untouched: the docstring is still there.
        assert ast.get_docstring(tree.body[0]) == "doc"

    def test_fingerprint_node_is_stable_and_short(self):
        stmt = ast.parse("def f():\n    return 1\n").body[0]
        assert fingerprint_node(stmt) == fingerprint_node(stmt)
        assert len(fingerprint_node(stmt)) == 16


# ---------------------------------------------------------------------------
# Behavior-irrelevant markers
# ---------------------------------------------------------------------------


class TestMarkers:
    def test_parse_reasoned_marker(self):
        markers = parse_markers(
            ["def label():  # repro: behavior-irrelevant reason=display only"]
        )
        assert markers[1] == Marker(line=1, reason="display only")
        assert markers[1].valid

    def test_reasonless_marker_is_invalid(self):
        markers = parse_markers(["# repro: behavior-irrelevant"])
        assert not markers[1].valid

    def test_marked_definition_is_excluded_from_module_fingerprint(
        self, tmp_path
    ):
        base = """
        def compute(x):
            return x + 1


        # repro: behavior-irrelevant reason=log formatting only
        def label():
            return "v1"
        """
        edited = base.replace('"v1"', '"v2 (renamed)"')
        a = build(tmp_path / "a", {"m.py": base}).modules["repro.m"]
        b = build(tmp_path / "b", {"m.py": edited}).modules["repro.m"]
        assert a.irrelevant == {"label": "log formatting only"}
        assert a.fingerprint == b.fingerprint

    def test_marked_edit_to_compute_still_changes_fingerprint(self, tmp_path):
        base = """
        # repro: behavior-irrelevant reason=log formatting only
        def label():
            return "v1"


        def compute(x):
            return x + 1
        """
        edited = base.replace("x + 1", "x + 2")
        a = build(tmp_path / "a", {"m.py": base}).modules["repro.m"]
        b = build(tmp_path / "b", {"m.py": edited}).modules["repro.m"]
        assert a.fingerprint != b.fingerprint

    def test_reasonless_marker_keeps_definition_and_is_recorded(self, tmp_path):
        source = """
        # repro: behavior-irrelevant
        def label():
            return "v1"
        """
        edited = source.replace('"v1"', '"v2"')
        a = build(tmp_path / "a", {"m.py": source}).modules["repro.m"]
        b = build(tmp_path / "b", {"m.py": edited}).modules["repro.m"]
        assert a.malformed_markers == (2,)
        assert a.irrelevant == {}
        # No opt-out happened: the edit is visible.
        assert a.fingerprint != b.fingerprint


# ---------------------------------------------------------------------------
# Closure digest
# ---------------------------------------------------------------------------


CLOSURE_TREE = {
    "experiments/__init__.py": "",
    "experiments/runner.py": "import repro.soc.chip\n",
    "soc/__init__.py": "",
    "soc/chip.py": "AMBIENT_C = 45.0\n\n\ndef temp():\n    return AMBIENT_C\n",
    "analysis/__init__.py": "",
    "analysis/audit/__init__.py": "TOOLING = True\n",
}


class TestClosure:
    def test_digest_reproducible_and_tagged(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        first = compute_closure(ProjectModel.build(package))
        second = compute_closure(ProjectModel.build(package))
        assert first.digest == second.digest
        assert first.python == python_tag()
        assert "repro.soc.chip" in first.modules

    def test_tooling_is_excluded_from_the_closure(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        report = compute_closure(ProjectModel.build(package))
        assert "repro.analysis.audit" not in report.modules

    def test_behavior_edit_moves_digest_doc_edit_does_not(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        original = compute_closure(ProjectModel.build(package)).digest

        chip = package / "soc" / "chip.py"
        chip.write_text(
            '"""Chip doc."""\n# comment\n' + chip.read_text(), encoding="utf-8"
        )
        documented = compute_closure(ProjectModel.build(package)).digest
        assert documented == original

        chip.write_text(
            chip.read_text().replace("45.0", "46.0"), encoding="utf-8"
        )
        edited = compute_closure(ProjectModel.build(package)).digest
        assert edited != original

    def test_closure_digest_memoised_per_root(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        clear_closure_cache()
        try:
            first = closure_digest(package)
            # Edit without clearing: the memo must still serve the old
            # digest (this is the documented contract tests rely on).
            chip = package / "soc" / "chip.py"
            chip.write_text(
                chip.read_text().replace("45.0", "46.0"), encoding="utf-8"
            )
            assert closure_digest(package) == first
            clear_closure_cache()
            assert closure_digest(package) != first
        finally:
            clear_closure_cache()


# ---------------------------------------------------------------------------
# Lazy model == forced model == the eager multi-walk derivation
# ---------------------------------------------------------------------------


REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def reference_module(model, name):
    """Edges and fingerprint of one module, derived the eager way.

    Separate walks for aliases (``ModuleContext.from_file``), docstring
    stripping and edge resolution — the derivation the single-walk
    project model replaced.
    """
    ctx = ModuleContext.from_file(Path(model.modules[name].path))
    strip_docstrings(ctx.tree)
    package_parts = name.split(".")
    edges = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                edges.update(model._edge_targets(item.name))
        elif isinstance(node, ast.ImportFrom):
            base = model._import_from_base(node, package_parts)
            if base is None:
                continue
            edges.update(model._edge_targets(base))
            for item in node.names:
                if item.name != "*":
                    edges.update(model._edge_targets(f"{base}.{item.name}"))
        elif isinstance(node, (ast.Call, ast.Attribute)):
            target = node.func if isinstance(node, ast.Call) else node
            qualified = ctx.qualified_name(target)
            if qualified is not None:
                edges.add(model._longest_module_prefix(qualified))
    edges -= {name, ""}
    fingerprint = fingerprint_module(ctx.tree, parse_markers(ctx.lines))
    return tuple(sorted(edges)), fingerprint


def assert_lazy_matches_forced(package, roots=CLOSURE_ROOTS):
    lazy = compute_closure(ProjectModel.build(package), roots)
    forced_model = ProjectModel.build(package).force()
    forced = compute_closure(forced_model, roots)
    assert sorted(lazy.modules) == sorted(forced.modules)
    assert lazy.modules == forced.modules
    assert lazy.digest == forced.digest
    for name in forced.modules:
        info = forced_model.modules[name]
        assert (info.imports, info.fingerprint) == reference_module(
            forced_model, name
        ), name
    return lazy


EQUIVALENCE_TREES = {
    "relative-imports": {
        "experiments/__init__.py": "",
        "experiments/runner.py": (
            "from . import plan\nfrom .plan import make\nfrom ..soc import chip\n"
        ),
        "experiments/plan.py": "def make():\n    return 1\n",
        "soc/__init__.py": "",
        "soc/chip.py": "X = 1\n",
    },
    "lazy-in-function-imports": {
        "experiments/__init__.py": "",
        "experiments/runner.py": """
        def run():
            from repro.soc.chip import temp

            return temp()
        """,
        "soc/__init__.py": "",
        "soc/chip.py": "def temp():\n    return 1\n",
        "island.py": "Y = 2\n",
    },
    "attribute-call-edges": {
        "experiments/__init__.py": "",
        "experiments/runner.py": """
        import repro
        from repro import soc as s


        def run():
            return repro.soc.deep.f() + s.chip.T
        """,
        "soc/__init__.py": "",
        "soc/deep.py": "def f():\n    return 5\n",
        "soc/chip.py": "T = 1\n",
    },
    "later-alias-wins": {
        "experiments/__init__.py": "",
        "experiments/runner.py": """
        from repro import soc as m


        def run():
            from repro import power as m

            return m.deep.f()
        """,
        "soc/__init__.py": "",
        "soc/deep.py": "def f():\n    return 1\n",
        "power/__init__.py": "",
        "power/deep.py": "def f():\n    return 2\n",
    },
    "reasoned-and-reasonless-markers": {
        "experiments/__init__.py": '"""Package doc."""\n',
        "experiments/runner.py": '''
        """Runner doc."""
        import repro.soc.chip


        # repro: behavior-irrelevant reason=display only
        def label():
            """Label doc."""
            return "v1"


        # repro: behavior-irrelevant
        def unreasoned():
            return "v2"


        class Runner:
            """Class doc."""

            def run(self):  # repro: behavior-irrelevant reason=method, not top level
                """Method doc."""
                return repro.soc.chip.X
        ''',
        "soc/__init__.py": "",
        "soc/chip.py": "X = 1\n",
    },
    "excluded-tooling": dict(
        CLOSURE_TREE,
        **{
            "experiments/runner.py": (
                "import repro.soc.chip\nimport repro.analysis.audit\n"
            ),
            "analysis/audit/probe.py": "import repro.island\n",
            "island.py": "Y = 2\n",
        },
    ),
    "missing-roots": {"a.py": "import repro.b\n", "b.py": "X = 1\n"},
}


class TestLazyEquivalence:
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_TREES))
    def test_fixture_tree(self, tmp_path, case):
        package = write_tree(tmp_path, EQUIVALENCE_TREES[case])
        lazy = assert_lazy_matches_forced(package)
        clear_closure_cache()
        try:
            assert closure_report(package) == lazy
        finally:
            clear_closure_cache()

    def test_fixture_closures_are_not_trivial(self, tmp_path):
        closures = {
            case: assert_lazy_matches_forced(
                write_tree(tmp_path / case, files)
            ).modules
            for case, files in EQUIVALENCE_TREES.items()
        }
        assert "repro.soc.chip" in closures["relative-imports"]
        assert "repro.soc.chip" in closures["lazy-in-function-imports"]
        assert "repro.island" not in closures["lazy-in-function-imports"]
        assert "repro.soc.deep" in closures["attribute-call-edges"]
        assert "repro.power.deep" in closures["later-alias-wins"]
        assert "repro.soc.deep" not in closures["later-alias-wins"]
        assert "repro.analysis.audit" not in closures["excluded-tooling"]
        assert "repro.island" not in closures["excluded-tooling"]
        assert closures["missing-roots"] == {}

    def test_custom_roots(self, tmp_path):
        package = write_tree(tmp_path, EQUIVALENCE_TREES["missing-roots"])
        lazy = assert_lazy_matches_forced(package, roots=("repro.a", "repro.nope"))
        assert sorted(lazy.modules) == ["repro", "repro.a", "repro.b"]

    def test_real_tree(self):
        lazy = assert_lazy_matches_forced(PACKAGE_ROOT)
        assert lazy == closure_report()

    def test_real_tree_digest_matches_committed_baseline(self):
        baseline = load_audit_baseline(REPO_ROOT / AUDIT_BASELINE_FILENAME)
        if not baseline.comparable:
            pytest.skip("baseline recorded under another Python minor")
        assert compute_closure(ProjectModel.build()).digest == baseline.closure_digest


class TestWorkCounts:
    """The digest parses only the closure; the audit parses everything."""

    def counted(self, monkeypatch):
        calls = {"parse": 0, "fingerprint_node": 0}
        real_parse = ast.parse
        real_fingerprint = project_module.fingerprint_node

        def parse(*args, **kwargs):
            calls["parse"] += 1
            return real_parse(*args, **kwargs)

        def fingerprint(node):
            calls["fingerprint_node"] += 1
            return real_fingerprint(node)

        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(project_module, "fingerprint_node", fingerprint)
        return calls

    def test_closure_digest_parses_only_the_closure(self, monkeypatch):
        sources = sorted(PACKAGE_ROOT.rglob("*.py"))
        calls = self.counted(monkeypatch)
        report = compute_closure(ProjectModel.build())
        assert calls["parse"] == len(report.modules)
        assert calls["parse"] < len(sources)
        assert calls["fingerprint_node"] == 0

    def test_audit_forces_every_module_and_symbol(self, monkeypatch):
        sources = sorted(PACKAGE_ROOT.rglob("*.py"))
        definitions = sum(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for path in sources
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        )
        calls = self.counted(monkeypatch)
        report = audit_project()
        assert report.files == len(sources)
        assert calls["parse"] == len(sources)
        assert calls["fingerprint_node"] == definitions
