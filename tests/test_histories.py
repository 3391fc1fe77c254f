import hashlib
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import minkbranch as mb
from minkbranch.errors import ScenariosNotEnumerable, UnknownScenario
from minkbranch.events import LabeledPoint
from minkbranch.histories import (
    ChainSample,
    History,
    common_scenarios,
    in_history,
    is_choice_point,
    is_generated_choice_point,
    prior_choice_witness,
    run_axiom_suite,
    scenarios_at,
)
from minkbranch.minkowski import point
from minkbranch.sampling import Sampler, SamplerConfig

from conftest import build_random_battery, history_order_agrees

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def test_chain_sample_validation():
    ChainSample.from_points([point(0, 0), point(1, 0), point(2, 1)])
    with pytest.raises(ValueError):
        ChainSample((point(0, 0), point(0, 1)))       # space-like step
    with pytest.raises(ValueError):
        ChainSample((point(0, 0), point(0, 0)))       # not strict
    with pytest.raises(ValueError):
        ChainSample((), None)
    ChainSample.from_points([point(1, 0)], declared_infimum=point(0, 0))
    with pytest.raises(ValueError):
        ChainSample.from_points([point(1, 0)], declared_infimum=point(5, 0))


def test_in_history(two_scenario_model):
    m = two_scenario_model
    h2 = History("s2")
    assert in_history(m, LabeledPoint(point(-1, 0), "s1"), h2)
    assert not in_history(m, LabeledPoint(point(1, 0), "s1"), h2)
    assert in_history(m, LabeledPoint(point(1, 0), "s1"), History("s1"))


def test_scenarios_at(two_scenario_model):
    m = two_scenario_model
    h1 = History("s1")
    assert scenarios_at(m, h1, point(-1, 0)) == frozenset({"s1", "s2"})
    assert scenarios_at(m, h1, point(1, 0)) == frozenset({"s1"})
    # space-like wings stay shared at any time
    assert scenarios_at(m, h1, point(1, 5)) == frozenset({"s1", "s2"})
    with pytest.raises(UnknownScenario):
        scenarios_at(m, History("zz"), point(0, 0))


def test_common_scenarios_shrinks_to_top(two_scenario_model):
    m = two_scenario_model
    h1 = History("s1")
    chain = ChainSample.from_points([point(-2, 0), point(-1, 0), point(1, 0)])
    assert common_scenarios(m, h1, chain) == frozenset({"s1"})
    low = ChainSample.from_points([point(-2, 0), point(-1, 0)])
    assert common_scenarios(m, h1, low) == frozenset({"s1", "s2"})


def test_choice_point_classification(two_scenario_model, harmonic_model):
    m = two_scenario_model
    assert is_generated_choice_point(m, "s1", "s2", point(0, 0))
    assert is_choice_point(m, "s1", "s2", point(0, 0))
    assert not is_choice_point(m, "s1", "s2", point(1, 0))
    assert not is_choice_point(m, "s1", "s2", point(-1, 0))
    assert not is_choice_point(m, "s1", "s2", point(0, 1))
    with pytest.raises(ValueError):
        is_choice_point(m, "s1", "s1", point(0, 0))

    h = harmonic_model
    # members are generated choice points
    assert is_generated_choice_point(h, "u", "v", point(0, 1))
    assert is_choice_point(h, "u", "v", point(0, 1))
    # the accumulation center is a choice point nobody generated
    assert not is_generated_choice_point(h, "u", "v", point(0, 0))
    assert is_choice_point(h, "u", "v", point(0, 0))


def test_prior_choice_witness(two_scenario_model):
    m = two_scenario_model
    chain = ChainSample.from_points([point(1, 0), point(2, 0)])
    assert prior_choice_witness(m, "s1", "s2", chain) == point(0, 0)


def test_prior_choice_witness_rejects_shared_chain(two_scenario_model):
    m = two_scenario_model
    # (1, 5) is still glued for the pair, so the precondition fails
    chain = ChainSample.from_points([point(1, 5)])
    with pytest.raises(ValueError):
        prior_choice_witness(m, "s1", "s2", chain)


def test_history_order_agrees(two_scenario_model):
    m = two_scenario_model
    pairs = [
        (point(0, 0), point(1, 0)),
        (point(0, 0), point(0, 1)),
        (point(-1, 0), point(3, 2)),
        (point(1, 1), point(0, 0)),
    ]
    assert history_order_agrees(m, History("s1"), pairs)
    assert history_order_agrees(m, History("s2"), pairs)


def test_axiom_suite_passes_on_presets(two_scenario_model, harmonic_model,
                                       integer_row_model):
    for m in (two_scenario_model, harmonic_model, integer_row_model):
        report = run_axiom_suite(m, SamplerConfig(seed=2, cases=150))
        assert report.passed, report.render()


def test_axiom_suite_refuses_invalid_model():
    bad = mb.Model(2, ("a", "b"), {("a", "b"): mb.FiniteFamily(())})
    report = run_axiom_suite(bad, SamplerConfig(seed=0, cases=5))
    assert not report.passed
    assert report.results[0].name == "validation-gate"
    assert len(report.results) == 1


def test_axiom_suite_deterministic(two_scenario_model):
    r1 = run_axiom_suite(two_scenario_model, SamplerConfig(seed=4, cases=50))
    r2 = run_axiom_suite(two_scenario_model, SamplerConfig(seed=4, cases=50))
    assert r1.render() == r2.render()


def test_axiom_suite_on_random_battery():
    for m in build_random_battery():
        report = run_axiom_suite(m, SamplerConfig(seed=8, cases=100))
        assert report.passed, report.render()


# Per model, the first 16 hex digits of the SHA-256 of repr(rng.getstate()) of the
# suite's sampler once the suite has run (seed 11 + index, 80 cases): the suite
# draws the same numbers, in the same order, however its checks are written.
SUITE_DRAWS = {
    "harmonic": "fbe58b43701e8e04",
    "integer_row": "ee001885cc74d35a",
    "two_scenarios": "e3a5d6cd7c2873b6",
    "random0": "4b35685d9532d34b",
    "random1": "251b5aea1c4133ff",
    "random2": "c684dc0c3682b8de",
    "random3": "83aeafcdfdd6891b",
    "random4": "d0a2a8f7160f1861",
    "random5": "ebe3123d67a245d6",
    "difference_row": "2ba67617f8aea6ba",
    "finite_3d": "9da0da7ce6c2c15e",
}


def test_axiom_suite_draw_stream_is_pinned(monkeypatch):
    built = []

    class Capturing(Sampler):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(mb.sampling, "Sampler", Capturing)
    named = [(name, mb.load(MODELS / f"{name}.mbs"))
             for name in ("harmonic", "integer_row", "two_scenarios")]
    named += [(f"random{i}", m) for i, m in enumerate(build_random_battery())]
    rows = {f"z{i}": frozenset(z) for i, z in enumerate(((), (0,), (0, 1, 2), (1, 3, 4, 5)))}
    named.append(("difference_row", mb.Model(2, list(rows), [
        ((a, b), mb.DifferenceRow(rows[a], rows[b])) for a, b in itertools.combinations(rows, 2)])))
    fam = mb.FiniteFamily((point(0, 0, 0), point(0, F(1, 2), 0), point(F(1, 4), F(-1, 4), F(1, 2))))
    named.append(("finite_3d", mb.Model(3, ("a", "b", "c"),
                                        {("a", "b"): fam, ("b", "c"): fam, ("a", "c"): fam})))
    draws = {}
    for i, (name, m) in enumerate(named):
        built.clear()
        report = run_axiom_suite(m, SamplerConfig(seed=11 + i, cases=80))
        assert report.passed and len(built) == 1, (name, report.render())
        draws[name] = hashlib.sha256(repr(built[0].rng.getstate()).encode()).hexdigest()[:16]
    assert draws == SUITE_DRAWS


def test_generator_model_scenarios_not_enumerable():
    model = mb.BinaryRowModel()
    h = History(mb.ZeroSetScenario.leading_zeros(3))
    with pytest.raises(ScenariosNotEnumerable):
        scenarios_at(model, h, point(F(1, 2), 0))


def test_chain_top_decides_overlap_of_whole_chain(two_scenario_model, harmonic_model,
                                                  integer_row_model):
    # An overlap region is downward closed, so an ascending chain lies in it
    # exactly when its maximum does: the chain-suprema axiom asks only that.
    outcomes = set()
    models = [two_scenario_model, harmonic_model, integer_row_model, *build_random_battery()]
    for seed, m in enumerate(models):
        sampler = Sampler(SamplerConfig(seed=seed), m.dimension)
        labels = m.scenario_list()
        for _ in range(60):
            chain = sampler.ascending_chain(sampler.rng.randint(2, 5))
            s = sampler.choice(labels)
            for t in labels:
                whole = all(m.in_overlap(s, t, p) for p in chain)
                assert m.in_overlap(s, t, chain[-1]) == whole, (s, t, chain)
                outcomes.add(whole)
    assert outcomes == {True, False}
