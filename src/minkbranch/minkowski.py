"""Exact causal order on rational Minkowski coordinates.

Points are tuples of rationals; coordinate 0 is time, the rest are space.
The squared interval between x and y is

    -(x0 - y0)^2 + sum_i (xi - yi)^2

and x causally precedes y when the interval is nonpositive and x is not
later than y.  Everything here is computed with `fractions.Fraction`, so
every predicate is exactly decidable; floats are rejected at construction
time rather than silently truncated.

Enumeration loops that test one point against many use the integer form
(D, nums) of each point instead: D is the lcm of its coordinate
denominators and nums its coordinates times D.  `integer_lt` decides `lt`
on two such forms with integer arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import DimensionMismatch

# Grain of the dyadic overshoot used by lift_above: lifted times live on
# the 1/2**16 lattice, which keeps them exact and reproducible.
LIFT_GRAIN = 1 << 16

_ZERO = Fraction(0)


def rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction to Fraction.

    Floats are rejected: a binary float is almost never the rational the
    caller meant, and exactness is the whole point of this module.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected a rational (int, 'p/q' string, Fraction), got {value!r}")


@dataclass(frozen=True)
class Point:
    """An event location: a tuple of rational coordinates, time first."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(rational(c) for c in self.coords)
        if len(coerced) < 2:
            raise ValueError("a point needs a time coordinate and at least one spatial coordinate")
        object.__setattr__(self, "coords", coerced)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def time(self) -> Fraction:
        return self.coords[0]

    @property
    def spatial(self) -> tuple[Fraction, ...]:
        return self.coords[1:]

    def with_time(self, t: Fraction | int | str) -> "Point":
        return Point((rational(t),) + self.coords[1:])

    def translated(self, delta: "Point | tuple") -> "Point":
        other = delta.coords if isinstance(delta, Point) else tuple(rational(c) for c in delta)
        if len(other) != len(self.coords):
            raise DimensionMismatch("translation vector has wrong dimension")
        return Point(tuple(a + b for a, b in zip(self.coords, other)))

    def __repr__(self) -> str:
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


def point(*coords: Fraction | int | str) -> Point:
    """Convenience constructor: point(0, '1/2') -> Point((0, 1/2))."""
    return Point(tuple(coords))


def _check_pair(x: Point, y: Point) -> None:
    if x.dimension != y.dimension:
        raise DimensionMismatch(f"points have dimensions {x.dimension} and {y.dimension}")


def interval(x: Point, y: Point) -> Fraction:
    """Squared Minkowski interval; negative timelike, zero lightlike, positive spacelike."""
    _check_pair(x, y)
    dt = x.coords[0] - y.coords[0]
    total = -dt * dt
    for a, b in zip(x.coords[1:], y.coords[1:]):
        d = a - b
        total += d * d
    return total


def leq(x: Point, y: Point) -> bool:
    """x causally precedes y (weakly): y is in the closed future cone of x."""
    _check_pair(x, y)
    if x.coords[0] > y.coords[0]:
        return False
    return interval(x, y) <= 0


def lt(x: Point, y: Point) -> bool:
    """Strict causal precedence: leq and distinct.

    Lightlike-related distinct points count; the cone is closed.
    """
    return x != y and leq(x, y)


#: A point's integer form: (D, nums) with coords == tuple(n / D for n in nums).
IntegerForm = tuple[int, tuple[int, ...]]


def integer_form(x: Point) -> IntegerForm:
    """The integer form (D, nums) of x, with D the lcm of its denominators."""
    d = lcm(*(c.denominator for c in x.coords))
    return d, tuple(c.numerator * (d // c.denominator) for c in x.coords)


def integer_lt(m: IntegerForm, x: IntegerForm) -> bool:
    """lt on integer forms: m strictly precedes x.

    With dt = x0*Dm - m0*Dx, this holds exactly when dt > 0 and
    sum_i (xi*Dm - mi*Dx)**2 <= dt**2: both sides of `interval` scaled by
    (Dm*Dx)**2.  dt > 0 already makes the points distinct.  Any common
    denominator serves as D, not only the lcm: scaling a form by k scales
    both sides by k**2.  The forms must have the same dimension; callers
    check that once per scan.
    """
    dm, mn = m
    dx, xn = x
    dt = xn[0] * dm - mn[0] * dx
    if dt <= 0:
        return False
    spread = 0
    for i in range(1, len(xn)):
        d = xn[i] * dm - mn[i] * dx
        spread += d * d
    return spread <= dt * dt


def slr(x: Point, y: Point) -> bool:
    """Space-like related: neither point causally precedes the other."""
    return not leq(x, y) and not leq(y, x)


def comparable(x: Point, y: Point) -> bool:
    return leq(x, y) or leq(y, x)


def _dyadic_cover_sqrt(s: Fraction) -> Fraction:
    """Smallest r = p / 2**16 with p a nonnegative integer and r*r >= s."""
    if s <= 0:
        return _ZERO
    # r*r >= s  <=>  p*p * den >= num << 32, for s = num/den.
    target = s.numerator << 32
    den = s.denominator
    p = isqrt(target // den)
    while p * p * den < target:
        p += 1
    while p > 0 and (p - 1) * (p - 1) * den >= target:
        p -= 1
    return Fraction(p, LIFT_GRAIN)


def lift_above(a: Point, b: Point) -> Point:
    """A point with a's spatial coordinates that both a and b causally precede.

    The time coordinate is max(a.time, b.time) + r where r is the smallest
    dyadic rational p/2**16 whose square covers the squared spatial distance
    between a and b.  Only the ordering guarantees (a <= result, b <= result)
    are ever relied on, not minimality of the overshoot.
    """
    _check_pair(a, b)
    spread = _ZERO
    for ai, bi in zip(a.coords[1:], b.coords[1:]):
        d = ai - bi
        spread += d * d
    t = max(a.coords[0], b.coords[0]) + _dyadic_cover_sqrt(spread)
    return Point((t,) + a.coords[1:])


def common_upper_bound(x: Point, y: Point) -> Point:
    """A point causally above both x and y (not a least upper bound)."""
    return lift_above(lift_above(x, x), y)


def between(x: Point, y: Point) -> Point:
    """The midpoint of a strictly ordered pair; strictly between both ends."""
    if not lt(x, y):
        raise ValueError(f"between() needs a strictly ordered pair, got {x!r} and {y!r}")
    half = Fraction(1, 2)
    return Point(tuple((a + b) * half for a, b in zip(x.coords, y.coords)))
