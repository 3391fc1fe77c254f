import random
from fractions import Fraction

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


def reference_interval(x, y) -> Fraction:
    """The squared interval from the definition, on the Fraction coordinates."""
    dt = x.coords[0] - y.coords[0]
    return -dt * dt + sum((a - b) ** 2 for a, b in zip(x.coords[1:], y.coords[1:]))


def reference_leq(x, y) -> bool:
    """The causal order from the definition: interval <= 0 and x not later than y."""
    return x.coords[0] <= y.coords[0] and reference_interval(x, y) <= 0


def reference_lt(x, y) -> bool:
    return x.coords != y.coords and reference_leq(x, y)


def reference_difference_triangle(ab, bc, ac):
    """The triangle rule for three difference rows, by position containment.

    Every row sits at time 0, so a member (0, j) of (a, c) weakly dominates
    a member of another row exactly when that row also differs at j.
    Returns the first uncovered (a, c) member, or None when all are covered.
    """
    covered = set(ab.positions) | set(bc.positions)
    for j in ac.positions:
        if j not in covered:
            return point(0, j)
    return None


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


class ReferenceSampler:
    """Lattice draws by the Fraction formulas, from the same seeded RNG as `Sampler`.

    A point is lo + step * randint(0, floor((hi - lo) / step)) per axis; a
    causal displacement is step * (k, j...) with k in 1..MAX_STEPS and each
    |j| at most k // (dimension - 1).
    """

    def __init__(self, config, dimension):
        self.rng = random.Random(config.seed)
        self.step = Fraction(config.step)
        self.box = config.resolved_box(dimension)
        self.dimension = dimension

    def point(self):
        return mb.Point(tuple(lo + self.step * self.rng.randint(0, int((hi - lo) / self.step))
                              for lo, hi in self.box))

    def causal_delta(self):
        k = self.rng.randint(1, mb.sampling.MAX_STEPS)
        span = k // (self.dimension - 1)
        return (self.step * k,) + tuple(self.step * self.rng.randint(-span, span)
                                        for _ in range(self.dimension - 1))


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
