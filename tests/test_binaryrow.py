from fractions import Fraction as F

import pytest

from minkbranch import binaryrow, events
from minkbranch.binaryrow import (
    BinaryRowModel,
    PrefixZeroScenarios,
    ZeroSetScenario,
    centred_family_report,
    chain_labeled,
    chain_points,
    exclusion_witness,
    scenarios_at_chain_point,
    splitting_family,
    verify_chain,
)
from minkbranch.errors import ScenariosNotEnumerable
from minkbranch.events import LabeledPoint
from minkbranch.minkowski import point


def test_zero_set_scenario_basics():
    s = ZeroSetScenario(frozenset({0, 2}))
    assert s.bit(0) == 0 and s.bit(1) == 1 and s.bit(2) == 0 and s.bit(3) == 1
    assert str(s) == "0101..."
    with pytest.raises(ValueError):
        ZeroSetScenario(frozenset({-1}))
    with pytest.raises(ValueError):
        ZeroSetScenario(frozenset({F(1, 2)}))


def test_leading_zeros_constructor():
    s3 = ZeroSetScenario.leading_zeros(3)
    assert s3.zeros == frozenset({0, 1, 2})
    assert str(s3) == "0001..."
    assert ZeroSetScenario.leading_zeros(0).zeros == frozenset()


def test_splitting_family_of_prefix_scenarios():
    s1 = ZeroSetScenario.leading_zeros(1)
    s3 = ZeroSetScenario.leading_zeros(3)
    fam = splitting_family(s1, s3)
    assert [p.coords for p in fam.members()] == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        splitting_family(s1, s1)


def test_chain_points_and_labels():
    pts = chain_points(2)
    assert [p.coords for p in pts] == [(F(1, 2), 0), (F(3, 2), 0)]
    labeled = chain_labeled(3)
    assert [lp.scenario for lp in labeled] == [
        ZeroSetScenario.leading_zeros(1),
        ZeroSetScenario.leading_zeros(2),
        ZeroSetScenario.leading_zeros(3),
    ]
    assert [lp.point for lp in labeled] == chain_points(3)


def test_verify_chain():
    assert verify_chain(10)
    # spot check one consecutive pair through the event order directly
    model = BinaryRowModel()
    labeled = chain_labeled(4)
    assert events.lt(model, labeled[0], labeled[1])
    assert events.lt(model, labeled[0], labeled[3])


def test_exclusion_witness_examples():
    assert exclusion_witness(ZeroSetScenario(frozenset())) == 0
    assert exclusion_witness(ZeroSetScenario.leading_zeros(3)) == 3
    assert exclusion_witness(ZeroSetScenario(frozenset({1, 4}))) == 0


def test_exclusion_witness_verifies_exactly():
    model = BinaryRowModel()
    scenario = ZeroSetScenario(frozenset({0, 1, 5}))
    k = exclusion_witness(scenario, model)
    assert k == 2
    chain_label = ZeroSetScenario.leading_zeros(k + 1)
    fam = model.family(scenario, chain_label)
    assert fam.contains(point(0, k))
    z_next = chain_points(k + 1)[k]
    assert not model.in_overlap(scenario, chain_label, z_next)


def test_prefix_zero_scenarios():
    p1 = scenarios_at_chain_point(1)
    p3 = scenarios_at_chain_point(3)
    s1 = ZeroSetScenario.leading_zeros(1)
    s3 = ZeroSetScenario.leading_zeros(3)
    assert p1.contains(s3) and p3.contains(s3)
    assert not p3.contains(s1)
    assert not p1.contains(ZeroSetScenario(frozenset({1})))
    for s in p3.samples(3):
        assert p3.contains(s)
    with pytest.raises(ValueError):
        scenarios_at_chain_point(0)


def test_prefix_sets_match_real_gluing():
    model = BinaryRowModel()
    zs = [
        ZeroSetScenario(frozenset()),
        ZeroSetScenario(frozenset({0})),
        ZeroSetScenario(frozenset({0, 1, 2, 5})),
        ZeroSetScenario.leading_zeros(6),
    ]
    for i in (1, 2, 4):
        prefix = scenarios_at_chain_point(i)
        chain_label = ZeroSetScenario.leading_zeros(i)
        z = chain_points(i)[-1]
        for s in zs:
            if s == chain_label:
                continue
            glued_here = model.in_overlap(s, chain_label, z)
            assert glued_here == prefix.contains(s), (i, s)


def test_generator_model_surface():
    model = BinaryRowModel()
    s = ZeroSetScenario(frozenset({2}))
    assert model.has_scenario(s)
    assert not model.has_scenario("s1")
    assert model.scenario_list() is None
    lp = LabeledPoint(point(F(1, 2), 0), s)
    with pytest.raises(ScenariosNotEnumerable):
        events.event_class(model, lp)
    assert events.same_event(model, lp, lp)


def test_centred_family_report():
    report = centred_family_report(12, support_bound=5)
    assert report.passed, report.render()
    names = [r.name for r in report.results]
    assert names == ["chain", "finite-intersections", "total-intersection"]
