"""Validation of ``BENCHMARK.json`` and of the result line a run prints."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BOUND = 0.25
MAX_FILE_BYTES = 64 * 1024


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_entries(
    errors: List[str],
    section: str,
    entries: object,
    keys: set,
    count: Tuple[int, int],
) -> List[dict]:
    """Shape checks shared by the workload and metric lists."""
    if not isinstance(entries, list) or not count[0] <= len(entries) <= count[1]:
        errors.append(f"{section}: need a list of {count[0]} to {count[1]} entries")
        return []
    good = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != keys:
            errors.append(f"{section}[{index}]: keys must be exactly {sorted(keys)}")
            continue
        if not isinstance(entry["name"], str) or not NAME.fullmatch(entry["name"]):
            errors.append(f"{section}[{index}]: bad name {entry['name']!r}")
            continue
        good.append(entry)
    return good


def validate(doc: object, raw_bytes: int = 0) -> List[str]:
    """Every way ``doc`` breaks the benchmark contract (empty when valid)."""
    errors: List[str] = []
    if raw_bytes > MAX_FILE_BYTES:
        errors.append(f"file is {raw_bytes} bytes, more than {MAX_FILE_BYTES}")
    if not isinstance(doc, dict) or set(doc) != TOP_KEYS:
        return errors + [f"top-level keys must be exactly {sorted(TOP_KEYS)}"]

    command = doc["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(arg, str) and len(arg) <= 200 for arg in command)
    ):
        errors.append("command: need 1 to 32 strings of at most 200 characters")
    elif any(arg.startswith("/") or ".." in arg.split("/") for arg in command):
        errors.append("command: no absolute paths and no '..'")

    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: need 1 to 16 directories")
    else:
        for path in paths:
            if (
                not isinstance(path, str)
                or not PATH.fullmatch(path)
                or path.startswith("/")
                or ".." in path.split("/")
            ):
                errors.append(f"paths: bad path {path!r}")

    seconds = doc["run_seconds"]
    if not _is_int(seconds) or not 1 <= seconds <= 60:
        errors.append("run_seconds: need a whole number from 1 to 60")

    names: List[str] = []
    workloads = _check_entries(errors, "workloads", doc["workloads"], {"name", "why"}, (2, 8))
    for entry in workloads:
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append(f"workload {entry['name']}: why must be one line of 1-200 characters")
        names.append(entry["name"])

    metric_keys = {"name", "unit", "better"}
    end_to_end = _check_entries(
        errors, "end_to_end", doc["end_to_end"], metric_keys | {"bound"}, (1, 16)
    )
    per_layer = _check_entries(errors, "per_layer", doc["per_layer"], metric_keys, (1, 128))
    for entry in end_to_end + per_layer:
        if not isinstance(entry["unit"], str) or not UNIT.fullmatch(entry["unit"]):
            errors.append(f"metric {entry['name']}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("lower", "higher"):
            errors.append(f"metric {entry['name']}: better must be 'lower' or 'higher'")
        names.append(entry["name"])
    for entry in end_to_end:
        bound = entry["bound"]
        if not isinstance(bound, (int, float)) or isinstance(bound, bool) or not 0 <= bound <= MAX_BOUND:
            errors.append(f"metric {entry['name']}: bound must be a number from 0 to {MAX_BOUND}")
    setup = [entry for entry in end_to_end if entry["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end: need setup_s with unit 's' and better 'lower'")

    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        errors.append(f"names used more than once: {duplicates}")
    return errors


def check_declared(
    doc: Mapping,
    workloads: Mapping[str, str],
    end_to_end: Mapping[str, Tuple[str, str, float]],
    per_layer: Mapping[str, Tuple[str, str]],
) -> List[str]:
    """Differences between ``BENCHMARK.json`` and what the runner implements."""
    errors: List[str] = []
    declared_workloads = {entry["name"]: entry["why"] for entry in doc["workloads"]}
    if declared_workloads != dict(workloads):
        errors.append("workloads in BENCHMARK.json differ from perfbench/definitions.py")
    declared_e2e = {
        entry["name"]: (entry["unit"], entry["better"], entry["bound"])
        for entry in doc["end_to_end"]
    }
    if declared_e2e != dict(end_to_end):
        errors.append("end_to_end in BENCHMARK.json differs from perfbench/definitions.py")
    declared_layers = {
        entry["name"]: (entry["unit"], entry["better"]) for entry in doc["per_layer"]
    }
    if declared_layers != dict(per_layer):
        errors.append("per_layer in BENCHMARK.json differs from perfbench/definitions.py")
    return errors


def load(path: Path) -> Tuple[Dict, List[str]]:
    """Parse and validate a ``BENCHMARK.json``."""
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except ValueError as error:
        return {}, [f"{path}: not JSON ({error})"]
    return doc, validate(doc, len(raw))


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Mapping[str, Tuple[float, str]]
) -> str:
    """The last line a run prints: exactly the four keys the contract names."""
    if attempted < 1 or failed < 0:
        raise ValueError("attempted must be at least 1 and failed non-negative")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
