import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import minkbranch as mb
from minkbranch.errors import ModelFormatError
from minkbranch.minkowski import point
from minkbranch.families import KIND_NAMES
from minkbranch.modelfile import _DATA, dumps, load, loads

ROOT = Path(__file__).resolve().parents[1]
DEMO_MODELS = [ROOT / "demos" / "models" / name for name in
               ("harmonic.mbs", "integer_row.mbs", "triangle_violation.mbs", "two_scenarios.mbs")]


def full_model():
    return mb.Model(3, ("a", "b"), {
        ("a", "b"): mb.FiniteFamily((point(0, 0, 1), point(0, 2, 0))),
    }, state={"label": "spatial"})


def plane_model():
    return mb.Model(2, ("a", "b", "c"), {
        ("a", "b"): mb.IntegerRow(F(-1, 2)),
        ("b", "c"): mb.HarmonicPair(point(0, F(1, 4))),
        ("a", "c"): mb.DifferenceRow(frozenset({0, 2}), frozenset({1, 2})),
    })


def test_round_trip_all_kinds():
    for model in (full_model(), plane_model()):
        again = loads(dumps(model))
        assert again == model
        assert again.state == model.state
        assert dumps(again) == dumps(model)


def test_file_round_trip(tmp_path):
    path = tmp_path / "model.mbs"
    model = plane_model()
    mb.dump(model, path)
    assert mb.load(path) == model


def test_rationals_serialized_as_quotient_strings():
    doc = json.loads(dumps(plane_model()))
    row = next(f for f in doc["families"] if f["kind"] == "integer_row")
    assert row["data"]["t0"] == "-1/2"
    harmonic = next(f for f in doc["families"] if f["kind"] == "harmonic_pair")
    assert harmonic["data"]["center"] == ["0/1", "1/4"]
    difference = next(f for f in doc["families"] if f["kind"] == "difference_row")
    assert difference["data"] == {"zeros_a": [0, 2], "zeros_b": [1, 2]}


def test_state_omitted_when_absent():
    doc = json.loads(dumps(plane_model()))
    assert "state" not in doc


def loc_of(text):
    with pytest.raises(ModelFormatError) as err:
        loads(text)
    return err.value.location


def test_error_locations():
    assert loc_of("{nope") == "$"
    assert loc_of('{"scenarios": [], "families": []}') == "$"
    assert loc_of('{"dimension": 2, "scenarios": "a", "families": []}') == "$.scenarios"
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "a"], "families": [],
    })) == "$.scenarios[1]"
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "b"], "kind": "nope", "data": {}}],
    })) == "$.families[0].kind"
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "zz"], "kind": "finite", "data": {"points": []}}],
    })) == "$.families[0].pair[1]"
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "b"], "kind": "finite",
                      "data": {"points": [["1/2"]]}}],
    })) == "$.families[0].data.points[0]"
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "b"], "kind": "finite",
                      "data": {"points": [[0.5, "0/1"]]}}],
    })) == "$.families[0].data.points[0][0]"


def test_unknown_keys_rejected():
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "b"], "families": [], "bogus": 1,
    })) == "$.bogus"
    assert loc_of(json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "b"], "kind": "finite",
                      "data": {"points": []}, "extra": 1}],
    })) == "$.families[0].extra"


def test_float_rejected_as_rational():
    text = json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "b"], "kind": "integer_row",
                      "data": {"t0": 0.25}}],
    })
    assert loc_of(text) == "$.families[0].data.t0"


def test_bool_is_not_an_integer_rational():
    text = json.dumps({
        "dimension": 2, "scenarios": ["a", "b"],
        "families": [{"pair": ["a", "b"], "kind": "integer_row",
                      "data": {"t0": True}}],
    })
    assert loc_of(text) == "$.families[0].data.t0"


def test_row_kinds_demand_plane_dimension():
    for kind, data in (("integer_row", {"t0": "0/1"}),
                       ("harmonic_pair", {"center": ["0/1", "0/1"]}),
                       ("difference_row", {"zeros_a": [0], "zeros_b": []})):
        text = json.dumps({
            "dimension": 3, "scenarios": ["a", "b"],
            "families": [{"pair": ["a", "b"], "kind": kind, "data": data}],
        })
        assert loc_of(text) == "$.families[0].kind", kind


def test_loaded_model_answers_queries():
    model = loads(dumps(plane_model()))
    assert model.in_overlap("a", "b", point(-1, 0))
    assert not model.in_overlap("a", "b", point(1, 0))


@pytest.mark.parametrize("path", DEMO_MODELS, ids=lambda p: p.name)
def test_demo_models_dump_to_their_own_bytes(path):
    assert dumps(load(path)) == path.read_text(encoding="utf-8")


MALFORMED_DATA = [
    # (model dimension, kind, data, location under $.families[0], reason)
    (2, "finite", {}, ".data", "missing key(s): points"),
    (2, "finite", {"points": [], "extra": 1}, ".data.extra", "unknown key(s): extra"),
    (2, "finite", {"points": "x"}, ".data.points", "expected an array of points, got str"),
    (3, "finite", {"points": [["0/1", "1/0", "0"]]}, ".data.points[0][1]",
     "bad rational '1/0': Fraction(1, 0)"),
    (3, "finite", {"points": [["0", "1"]]}, ".data.points[0]",
     "point has 2 coordinates, model dimension is 3"),
    (2, "integer_row", {"t0": "1/2", "center": ["0", "0"]}, ".data.center",
     "unknown key(s): center"),
    (2, "integer_row", {"t0": 0.5}, ".data.t0", "rationals are 'p/q' strings (or integers)"),
    (2, "integer_row", {"t0": "one"}, ".data.t0",
     "bad rational 'one': Invalid literal for Fraction: 'one'"),
    (3, "integer_row", {"t0": "0"}, ".kind", "this family kind requires model dimension 2"),
    (2, "harmonic_pair", {}, ".data", "missing key(s): center"),
    (2, "harmonic_pair", {"center": {"t": 0}}, ".data.center",
     "expected a coordinate array, got dict"),
    (2, "harmonic_pair", {"center": ["0", "0", "0"]}, ".data.center",
     "point has 3 coordinates, model dimension is 2"),
    (3, "harmonic_pair", {"center": ["0", "0", "0"]}, ".kind",
     "this family kind requires model dimension 2"),
    (2, "harmonic_pair", {"center": ["0", "2/0"]}, ".data.center[1]",
     "bad rational '2/0': Fraction(2, 0)"),
    (2, "difference_row", {"zeros_a": [0]}, ".data", "missing key(s): zeros_b"),
    (2, "difference_row", {"zeros_a": "0", "zeros_b": []}, ".data.zeros_a",
     "expected an array of integers, got str"),
    (2, "difference_row", {"zeros_a": [0], "zeros_b": [1, -1]}, ".data.zeros_b[1]",
     "zero positions are nonnegative integers"),
    (2, "difference_row", {"zeros_a": [True], "zeros_b": []}, ".data.zeros_a[0]",
     "zero positions are nonnegative integers"),
    (2, "difference_row", {"zeros_a": [], "zeros_b": [], "zeros_c": [], "a": 1}, ".data.a",
     "unknown key(s): a and 1 more"),
]


@pytest.mark.parametrize("dimension, kind, data, location, reason", MALFORMED_DATA)
def test_malformed_data_is_reported_where_and_why(dimension, kind, data, location, reason):
    with pytest.raises(ModelFormatError) as err:
        loads(json.dumps({"dimension": dimension, "scenarios": ["a", "b"],
                          "families": [{"pair": ["a", "b"], "kind": kind, "data": data}]}))
    assert (err.value.location, err.value.reason) == (f"$.families[0]{location}", reason)


def test_readme_kind_table_matches_the_format_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Model files", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    documented = {kind.strip().strip("`"): re.findall(r"`(\w+)`", data) for kind, data in rows}
    assert documented == {KIND_NAMES[cls]: list(fields) for cls, fields in _DATA.items()}
