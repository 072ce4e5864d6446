"""Output digests and the check against the committed references."""

import dataclasses

import numpy as np

from perfbench import definitions, reference
from perfbench.run import expected_for, parameters


def test_tampered_artefact_fails_the_check():
    expected = reference.load_reference()["sweep"][0]["artefacts"]
    observed = dict(expected)
    matched, checked, problems = reference.compare(observed, expected)
    assert (matched, checked, problems) == (len(expected), len(expected), [])

    observed["fig3"] = reference.text_digest("a tampered fig3 table")
    matched, checked, problems = reference.compare(observed, expected)
    assert matched == checked - 1
    assert len(problems) == 1 and problems[0].startswith("fig3:")


def test_missing_and_extra_outputs_are_problems():
    expected = {"a": reference.text_digest("a"), "b": reference.text_digest("b")}
    observed = {"a": expected["a"], "c": reference.text_digest("c")}
    matched, checked, problems = reference.compare(observed, expected)
    assert (matched, checked) == (1, 2)
    assert sorted(problems) == ["b: missing", "c: not in the reference"]


def test_one_character_changes_the_text_digest():
    assert reference.text_digest("fig1  1.00") != reference.text_digest("fig1  1.01")


def test_summary_digest_sees_one_flipped_bit():
    from repro.experiments.runner import RunSummary
    from repro.thermal.profile import ThermalProfile

    profile = ThermalProfile(2, 0.1)
    profile.append([40.0, 41.0])
    fields = {
        f.name: 1.0 for f in dataclasses.fields(RunSummary) if f.type in ("float", "int")
    }
    summary = RunSummary(
        app="tachyon", dataset="d", policy="linux", completed=True, profile=profile, **fields
    )
    base = reference.summaries_digest([summary])
    flipped = dataclasses.replace(
        summary, peak_temp_c=float(np.nextafter(1.0, 2.0))
    )
    assert reference.summaries_digest([flipped]) != base
    hotter = ThermalProfile(2, 0.1)
    hotter.append([40.0, float(np.nextafter(41.0, 42.0))])
    assert reference.summaries_digest([dataclasses.replace(summary, profile=hotter)]) != base


def test_committed_reference_covers_every_variant_and_output():
    document = reference.load_reference()
    assert document["parameters"] == parameters()
    for variant in range(definitions.VARIANTS):
        sweep = expected_for("sweep-cold", variant, document)
        assert sorted(sweep["outputs"]) == sorted(definitions.ARTEFACTS)
        assert sweep["executed"] + sweep["cache_hits"] + sweep["deduplicated"] == sweep["submitted"]
        fleet = expected_for("ensemble-fleet", variant, document)
        assert len(fleet["outputs"]) == len(definitions.FLEET_APPS) * len(definitions.FLEET_POLICIES)
        assert fleet["submitted"] == len(fleet["outputs"]) * definitions.FLEET_MEMBERS
