"""Normalized behavior fingerprints of functions, classes and modules.

A fingerprint is a SHA-256 over ``ast.dump`` of a *normalized* AST:
docstrings are stripped, comments and blank lines never reach the AST in
the first place, and ``include_attributes=False`` drops line/column
numbers — so reformatting, re-commenting or re-documenting code keeps
its fingerprint stable while any executable change (a constant, an
operator, a default, an annotation) changes it.

A definition can opt out of fingerprinting with a marker comment on its
``def``/``class`` line (or the line directly above)::

    def label(self) -> str:  # repro: behavior-irrelevant reason=display only

The ``reason=`` clause is mandatory, exactly like the lint suppressions
from PR 5: a reasonless marker opts nothing out and is reported as an
active :data:`MALFORMED_MARKER_CODE` finding.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import re
from dataclasses import dataclass
from typing import Dict, List, Union

#: Engine-level code for a marker comment missing its reason clause.
MALFORMED_MARKER_CODE = "IRR001"

#: Version of the normalization algorithm; bump on any change to how
#: fingerprints are derived so closure digests can never silently
#: collide across algorithm revisions.
FINGERPRINT_SCHEMA_VERSION = 1

_MARKER_RE = re.compile(
    r"#\s*repro:\s*behavior-irrelevant(?:\s+reason=(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Marker:
    """One parsed ``behavior-irrelevant`` marker comment."""

    line: int
    reason: str

    @property
    def valid(self) -> bool:
        """A marker only opts out with a non-empty reason."""
        return bool(self.reason.strip())


def parse_markers(lines: List[str]) -> Dict[int, Marker]:
    """All behavior-irrelevant markers of a file, keyed by 1-based line."""
    markers: Dict[int, Marker] = {}
    for index, text in enumerate(lines, start=1):
        match = _MARKER_RE.search(text)
        if match is None:
            continue
        reason = (match.group("reason") or "").strip()
        markers[index] = Marker(line=index, reason=reason)
    return markers


def marker_for(node: ast.stmt, markers: Dict[int, Marker]) -> Union[Marker, None]:
    """The marker opting ``node`` out, if any.

    A marker attaches to a definition when it sits on the ``def``/
    ``class`` line itself or on the line directly above it.
    """
    for line in (node.lineno, node.lineno - 1):
        marker = markers.get(line)
        if marker is not None and marker.valid:
            return marker
    return None


#: Node types whose body may open with a docstring.
DOCSTRING_OWNERS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

DocstringOwner = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def strip_docstring(owner: DocstringOwner) -> None:
    """Remove ``owner``'s own docstring expression, if any, in place."""
    body = owner.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        del body[0]


def strip_docstrings(node: ast.AST) -> None:
    """Remove every docstring expression from ``node``'s subtree, in place.

    The project model instead calls :func:`strip_docstring` on the
    owners its single walk over each module collected, so the
    fingerprint helpers below can ``ast.dump`` without deep-copying.
    """
    for child in ast.walk(node):
        if isinstance(child, DOCSTRING_OWNERS):
            strip_docstring(child)


def normalized_dump(node: ast.AST) -> str:
    """``ast.dump`` of ``node`` with docstrings and locations stripped.

    Deep-copies first, so the caller's AST is untouched; the project
    model strips in place and hashes with :func:`fingerprint_node`
    instead, to avoid the copy.
    """
    clone = copy.deepcopy(node)
    strip_docstrings(clone)
    return ast.dump(clone, include_attributes=False)


def fingerprint_node(node: ast.AST) -> str:
    """Behavior fingerprint of one already-normalized AST node.

    The node must have had its docstrings stripped (see
    :func:`strip_docstrings`); line/column info is excluded by the dump
    itself.
    """
    return hashlib.sha256(
        ast.dump(node, include_attributes=False).encode("utf-8")
    ).hexdigest()[:16]


def fingerprint_module(
    tree: ast.Module, markers: Dict[int, Marker]
) -> str:
    """Normalized fingerprint of an already-normalized module tree.

    Top-level definitions carrying a valid ``behavior-irrelevant``
    marker are dropped before hashing, so edits inside them keep the
    module fingerprint (and therefore the closure digest) stable.  The
    filtered view shares the original statement nodes — nothing is
    copied or mutated.
    """
    view = ast.Module(
        body=[
            stmt
            for stmt in tree.body
            if not (
                isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and marker_for(stmt, markers) is not None
            )
        ],
        type_ignores=[],
    )
    return hashlib.sha256(
        ast.dump(view, include_attributes=False).encode("utf-8")
    ).hexdigest()[:16]
