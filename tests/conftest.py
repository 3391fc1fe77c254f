import random
from fractions import Fraction
from math import ceil, floor, isqrt

import pytest

import minkbranch as mb
from minkbranch import events, minkowski
from minkbranch.errors import DimensionMismatch
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


def random_rational(rng, lo, hi, max_den=12) -> Fraction:
    """A seeded rational in [lo, hi] with a denominator from 1 to max_den."""
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * q, hi * q), q)


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


def _reference_unit_fraction_in(lo: Fraction, hi: Fraction) -> int | None:
    """The smallest integer n >= 1 with lo <= 1/n <= hi, or None."""
    if hi <= 0:
        return None
    n = 1 if hi >= 1 else ceil(1 / hi)
    return n if lo <= 0 or Fraction(1, n) >= lo else None


def reference_contains(family, x) -> bool:
    """`contains` of an IntegerRow, HarmonicPair or DifferenceRow, on the Fraction coordinates."""
    if x.dimension != 2:
        return False
    t, u = x.coords
    if isinstance(family, mb.IntegerRow):
        return t == family.t0 and u.denominator == 1 and u >= 0
    if isinstance(family, mb.HarmonicPair):
        c0, c1 = family.center.coords
        return t == c0 and u != c1 and (1 / abs(u - c1)).denominator == 1
    return t == 0 and u.denominator == 1 and u.numerator in family.positions


def reference_first_strictly_below(family, x):
    """`first_strictly_below` of every kind: a linear member scan for a FiniteFamily,
    the three planar kinds on the Fraction coordinates."""
    if isinstance(family, mb.FiniteFamily):
        return next((m for m in family.members() if minkowski.lt(m, x)), None)
    if x.dimension != 2:
        raise DimensionMismatch("this family kind lives in two dimensions")
    t, u = x.coords
    if isinstance(family, mb.IntegerRow):
        # integers n >= 0 with (t0, n) below x: |x1 - n| <= x0 - t0
        dt = t - family.t0
        if dt <= 0:
            return None
        n = max(0, ceil(u - dt))
        return point(family.t0, n) if n <= floor(u + dt) else None
    if isinstance(family, mb.HarmonicPair):
        c0, c1 = family.center.coords
        dt, u = t - c0, u - c1
        if dt <= 0:
            return None
        for sign in (1, -1):
            n = _reference_unit_fraction_in(sign * u - dt, sign * u + dt)
            if n is not None:
                return point(c0, c1 + Fraction(sign, n))
        return None
    # a difference row sits at time 0: the least position j with |x1 - j| <= x0
    if t <= 0:
        return None
    return next((point(0, j) for j in family.positions if abs(u - j) <= t), None)


def boundary_flagged(grid, x) -> bool:
    """Within one light-cone step of the box top or a spatial face, from the coordinates."""
    step = grid.step
    if x.coords[0] + step > grid.box[0][1]:
        return True
    for c, (lo, hi) in zip(x.coords[1:], grid.box[1:]):
        if c - step < lo or c + step > hi:
            return True
    return False


def integer_lt(m, x) -> bool:
    """The strict causal order on integer forms, any common denominator: m strictly precedes x.

    dt > 0 already makes the points distinct.
    """
    dt, spread = minkowski.separation(m, x)
    return dt > 0 and spread <= dt * dt


def reference_oracle_overlap(model, a, b, grid) -> frozenset:
    """Grid points with no truncated member strictly below them, by a linear scan."""
    forms = [m.form for m in model.family(a, b).members(limit=grid.truncate)]
    return frozenset(x for x in grid.points()
                     if not any(integer_lt(m, x.form) for m in forms))


def reference_oracle_maximal(kept) -> list:
    """The points of `kept` below no other, by time, from a quadratic dominance sweep."""
    kept = sorted(kept, key=lambda p: p.coords)
    return [x for i, x in enumerate(kept)
            if not any(integer_lt(x.form, z.form) for z in kept[i + 1:])]


def reference_escape_witness(x, members, family, grid) -> bool:
    """The oracle's escape witness for the form x, cut eagerly by every member up to the cap.

    y = x + (eps, 0): eps starts at the room below the box top, and each
    member cuts it below its gap sqrt(S) - dt (to (S - dt**2) /
    ((isqrt(S) + 1 + dt) * Dm * Dx) when dt >= 0, to -dt / (Dm * Dx) when
    dt < 0).  y is a witness when `members_needed` at y is within the cap.
    """
    dx, xn = x
    top = grid.box[0][1]
    num, den = top.numerator * dx - xn[0] * top.denominator, top.denominator
    if num <= 0:
        return False
    for m in members:
        dm, mn = m.form
        dt = xn[0] * dm - mn[0] * dx
        if dt < 0:
            cut, cut_den = -dt, dm
        else:
            s = sum((xn[i] * dm - mn[i] * dx) ** 2 for i in range(1, len(xn)))
            cut, cut_den = s - dt * dt, (isqrt(s) + 1 + dt) * dm
        if cut * den < num * cut_den:
            if cut <= 0:
                return False
            num, den = cut, cut_den
    y = (dx * den, (xn[0] * den + num,) + tuple(c * den for c in xn[1:]))
    return family.members_needed(y) <= grid.truncate


def reference_oracle_candidates(model, a, b, grid, maximal) -> tuple:
    """Choice-point candidates: the `maximal` points with no eager escape witness."""
    family = model.family(a, b)
    members = list(family.members(limit=grid.truncate))
    return tuple(x for x in maximal
                 if not reference_escape_witness(x.form, members, family, grid))


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
def rows_under_harmonic_model():
    # The (a, c) member at (0, 500 + 1/2), of index 2, is beside every
    # member of the two rows; enumerating (a, c) to index 1 misses it.
    return mb.Model(2, ("a", "b", "c"), {
        ("a", "b"): mb.IntegerRow(0),
        ("b", "c"): mb.IntegerRow(0),
        ("a", "c"): mb.HarmonicPair(point(0, 500)),
    })


@pytest.fixture(scope="session")
def random_battery():
    models = build_random_battery()
    assert len(models) >= 5
    assert any(len(m.scenarios) >= 3 for m in models)
    return models
