"""Output digests and the committed references they are checked against.

Sweeps are checked by the sha256 of every artefact text.  The fleet is
checked by one digest per (app, policy) cell over the canonical form of
its member summaries.  ``reference.json`` holds both per input variant,
with the exact counts a run must repeat; ``make_reference.py`` writes it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def text_digest(text: str) -> str:
    """sha256 of an artefact text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value):
    """A JSON-ready form of a summary field; arrays become shape + digest."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype="<f8")
        return {
            "shape": list(data.shape),
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        }
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def canonical_summary(summary) -> Dict[str, object]:
    """Every field of a ``RunSummary``; the profile as its samples' digest."""
    document = {}
    for field in dataclasses.fields(summary):
        value = getattr(summary, field.name)
        if field.name == "profile" and value is not None:
            value = {
                "num_cores": value.num_cores,
                "sample_period_s": value.sample_period_s,
                "samples": value.as_array(),
            }
        document[field.name] = _canonical(value)
    return document


def summaries_digest(summaries: Sequence) -> str:
    """sha256 over the canonical JSON of member summaries, in member order.

    Floats are written by ``repr``, so the digest changes when any bit of
    any field changes.
    """
    payload = json.dumps(
        [canonical_summary(summary) for summary in summaries],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compare(
    observed: Mapping[str, str], expected: Mapping[str, str]
) -> Tuple[int, int, List[str]]:
    """``(matched, checked, problems)`` of observed digests against references.

    Every expected output is checked; a missing or extra output, or a
    digest that differs, is a problem.
    """
    problems = []
    matched = 0
    for name in expected:
        if name not in observed:
            problems.append(f"{name}: missing")
        elif observed[name] != expected[name]:
            problems.append(f"{name}: digest {observed[name][:12]} != {expected[name][:12]}")
        else:
            matched += 1
    problems.extend(f"{name}: not in the reference" for name in observed if name not in expected)
    return matched, len(expected), problems


def load_reference(path: Path = REFERENCE_PATH) -> Dict:
    """The committed reference document."""
    with open(path) as handle:
        return json.load(handle)
