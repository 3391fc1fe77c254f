import json
from fractions import Fraction as F

import pytest

import minkbranch as mb
from minkbranch.errors import ModelFormatError
from minkbranch.minkowski import point
from minkbranch.modelfile import dumps, loads


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
