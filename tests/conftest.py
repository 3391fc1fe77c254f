import random

import pytest

import minkbranch as mb
from minkbranch import events, minkowski
from minkbranch.events import LabeledPoint
from minkbranch.minkowski import point

# Seeds whose generated models span 2..5 scenarios; fixed so every run
# exercises the same battery.
BATTERY_SEEDS = (3, 7, 11, 19, 23, 42)


def build_random_battery(seeds=BATTERY_SEEDS):
    models = []
    for seed in seeds:
        models.append(mb.random_model(random.Random(seed)))
    return models


def overlap_inclusion_counterexample(model, a, b, c, points):
    """First sampled point in both stepwise overlaps but not the direct one.

    On models satisfying the triangle condition the inclusion holds and this
    returns None; a non-None result is exactly a transitivity failure of the
    gluing relation at that point.
    """
    for x in points:
        if (model.in_overlap(a, b, x) and model.in_overlap(b, c, x)
                and not model.in_overlap(a, c, x)):
            return x
    return None


def history_order_agrees(model, history, pairs) -> bool:
    """Within one history, induced order and Minkowski order must coincide.

    `pairs` is an iterable of location pairs; both orientations of each
    pair are checked through the real event-order code path.
    """
    s = history.scenario
    for x, y in pairs:
        for lo, hi in ((x, y), (y, x)):
            induced = events.leq(model, LabeledPoint(lo, s), LabeledPoint(hi, s))
            if induced != minkowski.leq(lo, hi):
                return False
    return True


@pytest.fixture(scope="session")
def two_scenario_model():
    fam = mb.FiniteFamily((point(0, 0),))
    return mb.Model(2, ("s1", "s2"), {("s1", "s2"): fam})


@pytest.fixture(scope="session")
def harmonic_model():
    fam = mb.HarmonicPair(point(0, 0))
    return mb.Model(2, ("u", "v"), {("u", "v"): fam})


@pytest.fixture(scope="session")
def integer_row_model():
    fam = mb.IntegerRow(0)
    return mb.Model(2, ("p", "q"), {("p", "q"): fam})


@pytest.fixture(scope="session")
def triangle_violation_model():
    # Three scenarios whose pair families break the triangle condition:
    # each splitting point of (a, c) is space-like to both other families,
    # so gluing fails to be transitive at (1/2, 1).
    return mb.Model(2, ("a", "b", "c"), {
        ("a", "b"): mb.FiniteFamily((point(0, 0),)),
        ("b", "c"): mb.FiniteFamily((point(0, 2),)),
        ("a", "c"): mb.FiniteFamily((point(0, 1),)),
    })


@pytest.fixture(scope="session")
def random_battery():
    models = build_random_battery()
    assert len(models) >= 5
    assert any(len(m.scenarios) >= 3 for m in models)
    return models
