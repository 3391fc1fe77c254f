import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import minkbranch as mb
from minkbranch import events
from minkbranch.events import EventClass, LabeledPoint, event_class, glued, same_event
from minkbranch.minkowski import point

from conftest import build_random_battery, reference_leq

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def lp(t, x, s):
    return LabeledPoint(point(t, x), s)


def test_gluing_examples(two_scenario_model):
    m = two_scenario_model
    assert glued(m, lp(-1, 0, "s1"), lp(-1, 0, "s2"))
    assert not glued(m, lp(1, 0, "s1"), lp(1, 0, "s2"))
    # different locations are never one event
    assert not glued(m, lp(-1, 0, "s1"), lp(-2, 0, "s2"))
    # the splitting point itself is still shared
    assert glued(m, lp(0, 0, "s1"), lp(0, 0, "s2"))


def test_event_class_labels(two_scenario_model):
    m = two_scenario_model
    below = event_class(m, lp(-1, 0, "s1"))
    assert below.labels == frozenset({"s1", "s2"})
    above = event_class(m, lp(1, 0, "s1"))
    assert above.labels == frozenset({"s1"})
    assert below != above
    assert event_class(m, lp(-1, 0, "s2")) == below


def test_event_rep_equality_modes(two_scenario_model):
    m = two_scenario_model
    a = lp(-1, 0, "s1")
    b = lp(-1, 0, "s2")
    assert a != b                                 # two labeled points: exact identity
    assert same_event(m, a, b)
    assert same_event(m, a, event_class(m, b))
    assert not same_event(m, lp(1, 0, "s1"), lp(1, 0, "s2"))


def test_event_class_hash_ignores_representative(two_scenario_model):
    m = two_scenario_model
    a, b = event_class(m, lp(-1, 0, "s1")), event_class(m, lp(-1, 0, "s2"))
    assert a.representative != b.representative
    assert a == b and len({a, b}) == 1


def test_public_names_resolve():
    for name in mb.__all__:
        assert hasattr(mb, name), name


def test_event_class_validates_representative():
    with pytest.raises(ValueError):
        EventClass(point(0, 0), frozenset({"s1"}), representative="s2")


def test_induced_order_examples(two_scenario_model):
    m = two_scenario_model
    # cross-label order needs the lower point still glued
    assert events.leq(m, lp(-2, 0, "s1"), lp(-1, 0, "s2"))
    assert not events.leq(m, lp(1, 0, "s1"), lp(2, 0, "s2"))
    # within one label it is plain causal order
    assert events.leq(m, lp(1, 0, "s1"), lp(2, 0, "s1"))
    assert not events.leq(m, lp(2, 0, "s1"), lp(1, 0, "s1"))
    # strictness excludes the same location
    assert not events.lt(m, lp(-1, 0, "s1"), lp(-1, 0, "s2"))
    assert events.lt(m, lp(-2, 0, "s1"), lp(-1, 0, "s2"))


def test_induced_order_accepts_event_classes(two_scenario_model):
    m = two_scenario_model
    lo = event_class(m, lp(-2, 0, "s1"))
    hi = lp(-1, 0, "s2")
    assert events.leq(m, lo, hi)
    assert events.leq(m, lo, lp(-1, 0, "s2"))


def test_transitivity_failure_on_triangle_violation(triangle_violation_model):
    m = triangle_violation_model
    x = point(F(1, 2), 1)
    a, b, c = (LabeledPoint(x, s) for s in ("a", "b", "c"))
    assert glued(m, a, b)
    assert glued(m, b, c)
    assert not glued(m, a, c)


def sample_labeled(rng, model, count):
    out = []
    for _ in range(count):
        t = F(rng.randint(-8, 8), 4)
        x = F(rng.randint(-8, 8), 4)
        out.append(LabeledPoint(point(t, x), rng.choice(model.scenarios)))
    return out


def test_gluing_is_equivalence_on_validated_models():
    rng = random.Random(5)
    for m in build_random_battery():
        pts = sample_labeled(rng, m, 120)
        for a in pts[:40]:
            assert glued(m, a, a)
        for a, b in zip(pts, pts[1:]):
            assert glued(m, a, b) == glued(m, b, a)
        # transitivity over shared locations, where it has content
        for i in range(0, len(pts) - 2, 3):
            x = pts[i].point
            sa, sb, sc = (rng.choice(m.scenarios) for _ in range(3))
            a, b, c = LabeledPoint(x, sa), LabeledPoint(x, sb), LabeledPoint(x, sc)
            if glued(m, a, b) and glued(m, b, c):
                assert glued(m, a, c), (m, x, sa, sb, sc)


def test_induced_order_is_partial_order_on_validated_models():
    rng = random.Random(6)
    for m in build_random_battery():
        pts = sample_labeled(rng, m, 90)
        for a in pts[:30]:
            assert events.leq(m, a, a)
        for a, b in zip(pts, pts[1:]):
            if events.leq(m, a, b) and events.leq(m, b, a):
                assert same_event(m, a, b)
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            if events.leq(m, a, b) and events.leq(m, b, c):
                assert events.leq(m, a, c), (m, a, b, c)


def test_kernel_and_both_entry_points_agree():
    # the demo models, random draws and a difference-row model; same label and across labels
    rows = {f"z{i}": frozenset(z) for i, z in enumerate(((), (0,), (0, 1, 2), (1, 3, 4, 5)))}
    models = [mb.load(MODELS / f"{name}.mbs") for name in
              ("harmonic", "integer_row", "two_scenarios", "triangle_violation")]
    models += build_random_battery()
    models.append(mb.Model(2, list(rows), [((a, b), mb.DifferenceRow(rows[a], rows[b]))
                                           for a, b in itertools.combinations(rows, 2)]))
    rng = random.Random(25)
    seen = set()
    for m in models:
        for _ in range(150):
            x = point(F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            dt = F(rng.randint(-2, 8), 4)
            y = x.translated((dt, F(rng.randint(-8, 8), 8) * abs(dt)))
            s = rng.choice(m.scenarios)
            t = s if rng.random() < 0.3 else rng.choice(m.scenarios)
            kernel = events._leq(m, x, s, y, t)
            assert kernel == (reference_leq(x, y) and m.in_overlap(s, t, x)), (m, x, s, y, t)
            a, b = LabeledPoint(x, s), LabeledPoint(y, t)
            ca, cb = event_class(m, a), event_class(m, b)
            for lower, upper in ((a, b), (ca, b), (a, cb), (ca, cb)):
                assert events.leq(m, lower, upper) == kernel
                assert events.lt(m, lower, upper) == (x != y and kernel)
            seen.add((s == t, kernel, x == y))
    assert {(same, k) for same, k, _ in seen} == {(True, True), (True, False), (False, True),
                                                   (False, False)}
    assert (False, True, True) in seen and (True, True, True) in seen
