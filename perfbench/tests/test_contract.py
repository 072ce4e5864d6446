"""Validation of BENCHMARK.json, metric and workload names, and the result line."""

import copy
import json
from pathlib import Path

import pytest

from perfbench import contract, definitions

ROOT = Path(__file__).resolve().parents[2]


def committed():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_committed_file_is_valid_and_matches_the_runner():
    doc, errors = contract.load(ROOT / "BENCHMARK.json")
    assert errors == []
    assert contract.check_declared(
        doc, definitions.WORKLOADS, definitions.END_TO_END, definitions.PER_LAYER
    ) == []


@pytest.mark.parametrize(
    "name", ["", "-lead", ".lead", "has space", "x" * 65, "slash/name", "é"]
)
def test_bad_metric_names_are_refused(name):
    doc = committed()
    doc["per_layer"][0]["name"] = name
    assert contract.validate(doc)


@pytest.mark.parametrize("name", ["a", "0start", "tick.new_phase_s", "x" * 64, "a-b.c_d"])
def test_good_names_pass(name):
    doc = committed()
    doc["per_layer"][0]["name"] = name
    assert contract.validate(doc) == []


def test_bad_workload_name_and_multiline_why_are_refused():
    doc = committed()
    doc["workloads"][0]["name"] = "bad name"
    assert contract.validate(doc)
    doc = committed()
    doc["workloads"][0]["why"] = "two\nlines"
    assert contract.validate(doc)


def test_names_must_be_unique_across_the_file():
    doc = committed()
    doc["per_layer"][1]["name"] = doc["per_layer"][0]["name"]
    assert any("more than once" in error for error in contract.validate(doc))
    doc = committed()
    doc["per_layer"][0]["name"] = "sweep_s"
    assert any("more than once" in error for error in contract.validate(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["end_to_end"][0].update(bound=0.3),
        lambda doc: doc["end_to_end"][0].update(bound=-0.1),
        lambda doc: doc["end_to_end"][0].update(unit="seconds of wall time"),
        lambda doc: doc["end_to_end"][0].update(better="faster"),
        lambda doc: doc["end_to_end"][0].pop("bound"),
        lambda doc: doc.update(run_seconds=61),
        lambda doc: doc.update(run_seconds=True),
        lambda doc: doc.update(paths=["/abs"]),
        lambda doc: doc.update(paths=["../out"]),
        lambda doc: doc.update(command=["python3", "../run.py"]),
        lambda doc: doc.update(workloads=doc["workloads"][:1]),
        lambda doc: doc.update(extra=1),
        lambda doc: doc.update(
            end_to_end=[e for e in doc["end_to_end"] if e["name"] != "setup_s"]
        ),
    ],
)
def test_contract_breaches_are_refused(mutate):
    doc = copy.deepcopy(committed())
    mutate(doc)
    assert contract.validate(doc)


def test_setup_bound_is_the_largest():
    bounds = {name: bound for name, (_, _, bound) in definitions.END_TO_END.items()}
    assert bounds["setup_s"] == max(bounds.values())


def test_declared_metrics_must_match_the_runner():
    doc = committed()
    doc["per_layer"] = doc["per_layer"][:-1]
    assert contract.check_declared(
        doc, definitions.WORKLOADS, definitions.END_TO_END, definitions.PER_LAYER
    )


def test_result_line_has_exactly_the_contract_keys():
    line = contract.result_line(True, 3, 0, {"sweep_s": (1.25, "s")})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"sweep_s": {"value": 1.25, "unit": "s"}},
    }
    with pytest.raises(ValueError):
        contract.result_line(True, 0, 0, {})
