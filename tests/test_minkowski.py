import random
from fractions import Fraction as F
from math import lcm

import pytest
from conftest import reference_interval, reference_leq, reference_lt
from hypothesis import given, settings
from hypothesis import strategies as st

from minkbranch import minkowski
from minkbranch.errors import DimensionMismatch
from minkbranch.minkowski import (
    LIFT_GRAIN,
    Point,
    between,
    common_upper_bound,
    comparable,
    integer_lt,
    interval,
    leq,
    lift_above,
    lt,
    point,
    rational,
    slr,
)


def test_rational_accepts_exact_inputs():
    assert rational(3) == F(3)
    assert rational("1/2") == F(1, 2)
    assert rational(F(2, 4)) == F(1, 2)


def test_rational_rejects_bools():
    with pytest.raises(TypeError):
        rational(True)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        point(0.5, 1)


def test_point_needs_time_plus_space():
    with pytest.raises(ValueError):
        Point((F(1),))


def test_interval_example():
    assert interval(point(0, 1), point(F(3, 2), 0)) == F(-5, 4)


def test_order_examples():
    assert leq(point(0, 1), point(F(3, 2), 0))
    assert lt(point(0, 1), point(F(3, 2), 0))
    # lightlike-related distinct points are strictly ordered
    assert lt(point(0, 0), point(1, 1))
    assert leq(point(0, 0), point(1, 1))
    # same interval, reversed time: not below
    assert not leq(point(1, 1), point(0, 0))
    assert slr(point(0, 0), point(0, 1))
    assert not slr(point(0, 0), point(2, 1))
    assert comparable(point(0, 0), point(2, 1))


def test_order_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        leq(point(0, 0), point(0, 0, 0))


def test_integer_form_example():
    x = point(F(-3, 4), 2, F(5, 6))
    assert x.form == (12, (-9, 24, 10))
    assert point(0, 0).form == (1, (0, 0))


# Integer spatial offsets of length 1, 5 and 7 in dimensions 2, 3 and 4:
# time offsets of that length make lightlike pairs exactly.
LIGHTLIKE = {2: ((1,), 1), 3: ((3, 4), 5), 4: ((2, 3, 6), 7)}


def _random_pair(rng: random.Random, dimension: int) -> tuple[Point, Point]:
    def rat() -> F:
        return F(rng.randint(-3000, 3000), rng.randint(1, 1000))

    x = Point(tuple(rat() for _ in range(dimension)))
    kind = rng.randrange(5)
    if kind == 0:      # equal points
        return x, Point(x.coords)
    if kind == 1:      # same time
        return x, Point((x.time,) + tuple(rat() for _ in range(dimension - 1)))
    spatial, length = LIGHTLIKE[dimension]
    scale = F(rng.choice((-1, 1)), rng.randint(1, 1000))
    signs = [rng.choice((-1, 1)) for _ in spatial]
    delta = [scale * length] + [scale * s * c for s, c in zip(signs, spatial)]
    if kind == 3:      # just inside or just outside the light cone
        delta[0] += F(rng.choice((-1, 1)), rng.randint(1, 1000) ** 2)
    elif kind == 4:    # anywhere
        delta = [rat() for _ in range(dimension)]
    return x, x.translated(tuple(delta))


def test_integer_lt_matches_lt_on_random_rational_pairs():
    # The kernel against the Fraction definition in conftest, not against itself.
    rng = random.Random(20070611)
    outcomes = {True: 0, False: 0}
    lightlike_below = 0
    for dimension in (2, 3, 4):
        for _ in range(2000):
            x, y = _random_pair(rng, dimension)
            for m, z in ((x, y), (y, x)):
                expected = reference_lt(m, z)
                assert integer_lt(m.form, z.form) == expected, (m, z)
                assert lt(m, z) == expected, (m, z)
                assert leq(m, z) == reference_leq(m, z), (m, z)
                assert interval(m, z) == reference_interval(m, z), (m, z)
                outcomes[expected] += 1
                lightlike_below += expected and reference_interval(m, z) == 0
    assert min(outcomes.values()) > 1000
    assert lightlike_below > 100


def test_integer_lt_accepts_any_common_denominator():
    rng = random.Random(5)
    for _ in range(500):
        x, y = _random_pair(rng, rng.randint(2, 4))
        d, nums = y.form
        k = rng.randint(2, 50)
        scaled = (d * k, tuple(n * k for n in nums))
        assert integer_lt(x.form, scaled) == reference_lt(x, y)
        assert lcm(*(c.denominator for c in y.coords)) == d


def _lcm_form(x: Point) -> tuple:
    d = lcm(*(c.denominator for c in x.coords))
    return d, tuple(int(c * d) for c in x.coords)


def test_stored_form_is_the_lcm_form_of_every_constructed_point():
    rng = random.Random(7)
    for _ in range(300):
        dimension = rng.randint(2, 4)
        x, y = _random_pair(rng, dimension)
        lo, hi = (x, y) if reference_leq(x, y) else (y, x)
        made = [x, y, point(*x.coords), x.translated(y), x.translated(y.coords),
                x.translated(tuple(-c for c in x.coords)), lift_above(x, y),
                common_upper_bound(x, y)]
        if reference_lt(lo, hi):
            made.append(between(lo, hi))
        for p in made:
            assert p.form == _lcm_form(p), p
            assert all(type(c) is F for c in p.coords), p
    assert x.translated(y).coords == tuple(a + b for a, b in zip(x.coords, y.coords))


def test_hash_and_equality_read_only_the_coordinates():
    p = point(F(1, 2), F(-3, 4), 5)
    assert hash(p) == hash((p.coords,))
    q = point("1/2", "-3/4", "5/1")
    d, nums = q.form
    object.__setattr__(q, "form", (2 * d, tuple(2 * n for n in nums)))
    assert q == p and hash(q) == hash(p)
    assert repr(q) == "Point(1/2, -3/4, 5)"
    assert not hasattr(p, "__dict__")   # the form sits in a slot


def test_lift_above_plane_example():
    up = lift_above(point(0, 0), point(0, 3))
    assert up == point(3, 0)
    assert leq(point(0, 3), up)
    assert leq(point(0, 0), up)


def test_lift_above_dyadic_example():
    # spatial distance sqrt(2) is irrational; the cover is the least
    # dyadic with grain 2**16 whose square reaches 2
    up = lift_above(point(0, 0, 0), point(0, 1, 1))
    assert up == Point((F(46341, 32768), F(0), F(0)))
    r = up.time
    assert r * r >= 2
    assert (r - F(1, LIFT_GRAIN)) ** 2 < 2


def test_lift_above_keeps_spatial_coords_and_clears_both_times():
    a = point(F(5, 2), -1, 4)
    b = point(3, 2, 2)
    up = lift_above(a, b)
    assert up.coords[1:] == a.coords[1:]
    assert up.time > a.time and up.time > b.time
    assert leq(a, up) and leq(b, up)


def test_common_upper_bound():
    pairs = [
        (point(0, 0), point(0, 5)),
        (point(1, -3), point(-2, 4)),
        (point(0, 0, 0), point(0, 1, 1)),
    ]
    for x, y in pairs:
        z = common_upper_bound(x, y)
        assert leq(x, z) and leq(y, z)


def test_between_example():
    m = between(point(0, 0), point(2, 1))
    assert m == point(1, F(1, 2))
    assert lt(point(0, 0), m) and lt(m, point(2, 1))


def test_between_requires_strict_order():
    with pytest.raises(ValueError):
        between(point(0, 0), point(0, 1))
    with pytest.raises(ValueError):
        between(point(0, 0), point(0, 0))


def test_between_on_lightlike_pair_stays_on_segment():
    m = between(point(0, 0), point(2, 2))
    assert m == point(1, 1)
    assert lt(point(0, 0), m) and lt(m, point(2, 2))


coords = st.fractions(min_value=-4, max_value=4, max_denominator=16)


def points(dimension):
    return st.tuples(*([coords] * dimension)).map(lambda t: point(*t))


@given(points(2))
def test_reflexive(x):
    assert leq(x, x)
    assert not lt(x, x)
    assert not slr(x, x)


@given(points(2), points(2))
def test_antisymmetric_plane(x, y):
    if leq(x, y) and leq(y, x):
        assert x == y


@given(points(3), points(3))
def test_antisymmetric_space(x, y):
    if leq(x, y) and leq(y, x):
        assert x == y


@given(points(2), points(2))
def test_trichotomy(x, y):
    states = [x == y, lt(x, y), lt(y, x), slr(x, y)]
    assert states.count(True) == 1


@settings(max_examples=300)
@given(points(2), points(2), points(2))
def test_transitive_plane(x, y, z):
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


@settings(max_examples=300)
@given(points(3), points(3), points(3))
def test_transitive_space(x, y, z):
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


@given(points(2), points(2))
def test_lift_above_dominates(x, y):
    z = lift_above(x, y)
    assert leq(x, z) and leq(y, z)
    assert z.coords[1:] == x.coords[1:]


@given(points(2), points(2))
def test_between_is_strictly_inside(x, y):
    if lt(x, y):
        m = between(x, y)
        assert lt(x, m) and lt(m, y)


def test_dyadic_cover_sqrt_is_the_least_cover():
    # the definition: the least p >= 0 with p*p * den >= num << 32, s = num/den
    def least_cover(s):
        target, p = s.numerator << 32, 0
        while p * p * s.denominator < target:
            p += 1
        return p

    rng = random.Random(12)
    for _ in range(300):
        den = rng.randint(1, 10 ** 7)
        s = F(rng.randint(1, max(1, den // 1000)), den)
        assert minkowski._dyadic_cover_sqrt(s) == F(least_cover(s), minkowski.LIFT_GRAIN), s
    for s in (F(0), F(-3, 4)):
        assert minkowski._dyadic_cover_sqrt(s) == 0
    for _ in range(2000):   # larger squares: p covers s and p - 1 does not
        s = F(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 6))
        p = minkowski._dyadic_cover_sqrt(s) * minkowski.LIFT_GRAIN
        assert p.denominator == 1 and p * p >= s * minkowski.LIFT_GRAIN ** 2
        assert (p - 1) ** 2 < s * minkowski.LIFT_GRAIN ** 2
